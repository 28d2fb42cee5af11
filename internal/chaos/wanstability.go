package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/health"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// WAN stability track: a single Raft group on a multi-region latency
// topology (internal/simnet.Topology), driven to steady state and then
// through a leader kill, with a dedicated wan-stability invariant:
//
//	wan-stability   at steady state on a healthy WAN, no live node ever
//	                campaigns (enters Candidate) and no term advances
//	                past the steady baseline — every election would be
//	                spurious, caused by jitter alone
//
// plus a bounded-failover liveness check after the leader kill. The
// point of the track is the contrast the acceptance test pins: with the
// paper profile's 50-tick timeouts the 50 ms topology's lognormal
// jitter tail fires spurious elections, while the wan profile
// (pre-vote, check-quorum, RTT-tuned timeouts) keeps the same
// 20 seeds perfectly quiet.

// Phases of a stability run, in virtual time. Leader election, tuner
// sample collection and retuning all happen in the warm-up; the
// monitored steady-state window opens after it.
const (
	stabilityWarmup = 10 * simnet.Second
	stabilitySteady = 30 * simnet.Second
)

// What a stability run is: five raft nodes on the wan50 preset, started
// on the paper's LAN timers U(50, 100) ms with a 15-tick heartbeat —
// exactly what misfires on a WAN until the tuner lifts it.
const (
	stabilityNodes         = 5
	stabilityTopology      = "wan50"
	stabilityHeartbeatTick = 15
)

// StabilityOptions parameterizes one WAN stability run (five nodes on
// wan50, see stabilityNodes); Seed alone defines the run for a given
// profile.
type StabilityOptions struct {
	// Seed drives every rng in the run.
	Seed int64 `json:"seed"`

	// Profile selects the raft flags on every node and whether the
	// health→raft feedback loop runs: per-node RTT stats fed from
	// delivery observations, retuning election timeouts every
	// cluster.AutoTuneInterval (health.Tuning with its defaults: 10× the
	// p99 RTT, clamped to [50, 5000] ticks). The zero value is
	// cluster.Paper; the single group has no co-member detector to run.
	Profile cluster.Profile `json:"profile,omitempty"`

	// Telemetry, when non-nil, is threaded into every node with its
	// clock pinned to virtual time (equal seeds ⇒ byte-identical
	// snapshots).
	Telemetry *telemetry.Registry `json:"-"`
}

// StabilityReport is the outcome of one WAN stability run.
type StabilityReport struct {
	Options  StabilityOptions `json:"options"`
	Topology string           `json:"topology"`

	// SpuriousElections counts live nodes entering Candidate during the
	// steady window — on a healthy network every one of them is jitter-
	// induced disruption. Pre-vote probes (PreCandidate) are not
	// counted: probing without bumping terms is exactly the designed
	// non-disruptive behavior.
	SpuriousElections int `json:"spurious_elections"`
	// BaselineTerm / FinalSteadyTerm bracket the steady window; any
	// advance is a (possibly silent) election.
	BaselineTerm    uint64 `json:"baseline_term"`
	FinalSteadyTerm uint64 `json:"final_steady_term"`

	// FailoverTicks is how many ticks (virtual ms) the group needed to
	// elect a replacement after the leader kill; FailoverBound is the
	// bound it was held to.
	FailoverTicks int `json:"failover_ticks"`
	FailoverBound int `json:"failover_bound"`

	// TunedBands records each surviving node's final [min,max) election
	// band — stock (50,100) unless the tuner moved it.
	TunedBands map[uint64][2]int `json:"tuned_bands"`

	Violations []Violation `json:"violations"`
}

// Passed reports whether every invariant held.
func (r *StabilityReport) Passed() bool { return len(r.Violations) == 0 }

// NewWANStabilityChecker builds the wan-stability invariant over a
// steady-state baseline: no live node may be campaigning (Candidate)
// and no live node's term may exceed baselineTerm.
func NewWANStabilityChecker(baselineTerm uint64) Checker {
	return NewChecker("wan-stability", func(v View) []string {
		var out []string
		for _, n := range v.Nodes {
			if n.Down {
				continue
			}
			if n.State == raft.Candidate {
				out = append(out, fmt.Sprintf("node %d campaigning (term %d) at steady state", n.ID, n.Term))
			}
			if n.Term > baselineTerm {
				out = append(out, fmt.Sprintf("node %d term %d advanced past steady baseline %d", n.ID, n.Term, baselineTerm))
			}
		}
		return out
	})
}

// wanWorld is the minimal single-group world the stability run drives.
type wanWorld struct {
	sim *simnet.Sim
	g   *simnet.Group
	rtt map[uint64]*health.RTTStats
	rep *StabilityReport
}

func (w *wanWorld) violate(detail string) {
	w.rep.Violations = append(w.rep.Violations, Violation{
		AtUs: int64(w.sim.Now()), Invariant: "wan-stability", Detail: detail,
	})
}

// maxTerm returns the highest term across live nodes.
func (w *wanWorld) maxTerm() uint64 {
	var max uint64
	for _, id := range w.g.IDs() {
		if h := w.g.Host(id); !h.Down() && h.Node.Term() > max {
			max = h.Node.Term()
		}
	}
	return max
}

// retune runs one tuning step on every live node, in ascending id
// order (Group.IDs) for deterministic replay.
func (w *wanWorld) retune(tuning health.Tuning) {
	for _, id := range w.g.IDs() {
		if h := w.g.Host(id); !h.Down() {
			tuning.Retune(w.rtt[id], h.Node)
		}
	}
}

// RunWANStability executes one WAN stability run: bootstrap and warmup
// on the wan50 topology, a monitored steady-state window, then a leader
// kill with bounded failover. Deterministic per (options, seed).
func RunWANStability(o StabilityOptions) (*StabilityReport, error) {
	topo, err := simnet.Preset(stabilityTopology)
	if err != nil {
		return nil, err
	}
	rep := &StabilityReport{Options: o, Topology: topo.Name, TunedBands: map[uint64][2]int{}}
	w := &wanWorld{
		sim: simnet.New(),
		rtt: make(map[uint64]*health.RTTStats),
		rep: rep,
	}
	o.Telemetry.SetClock(func() int64 { return int64(w.sim.Now()) })
	w.g = simnet.NewGroup(w.sim, "wan", topo, rand.New(rand.NewSource(o.Seed^0x3a41c0de)))

	peers := make([]uint64, stabilityNodes)
	for i := range peers {
		peers[i] = uint64(i + 1)
	}
	steadyOpen := false
	for _, id := range peers {
		id := id
		w.rtt[id] = health.NewRTTStats(0)
		node, err := raft.NewNode(o.Profile.Raft(raft.Config{
			ID:              id,
			Peers:           peers,
			ElectionTickMin: electionTickMin,
			ElectionTickMax: electionTickMax,
			HeartbeatTick:   stabilityHeartbeatTick,
			Rng:             rand.New(rand.NewSource(o.Seed ^ (int64(id) * 0x9e3779b9))),
			Telemetry:       o.Telemetry,
		}))
		if err != nil {
			return nil, err
		}
		h, err := w.g.Add(node)
		if err != nil {
			return nil, err
		}
		h.OnStateChange = func(state raft.State, term, leader uint64) {
			if steadyOpen && state == raft.Candidate {
				rep.SpuriousElections++
			}
		}
	}
	// Every delivered message is an RTT observation for its receiver:
	// the one-way delay doubled approximates the round trip on these
	// near-symmetric links, which is all the ×10 tuning rule needs.
	w.g.OnDeliver = func(m raft.Message, oneWay simnet.Duration) {
		if st, ok := w.rtt[m.To]; ok {
			st.Observe(m.From, 2*int64(oneWay))
		}
	}

	tuning := health.Tuning{TickUs: int64(w.g.TickInterval)}
	if o.Profile.AutoTune() {
		var loop func()
		loop = func() {
			w.retune(tuning)
			w.sim.Schedule(cluster.AutoTuneInterval, loop)
		}
		w.sim.Schedule(cluster.AutoTuneInterval, loop)
	}

	// Bootstrap: a leader must emerge within the warmup window.
	warmupEnd := w.sim.Now() + simnet.Time(stabilityWarmup)
	if !w.sim.RunWhileNot(func() bool { return w.g.Leader() != raft.None }, warmupEnd) {
		w.violate("no leader elected during warmup")
		return rep, nil
	}
	w.sim.RunUntil(warmupEnd)
	if w.g.Leader() == raft.None {
		w.violate("no leader at end of warmup")
		return rep, nil
	}

	// Steady state: the wan-stability invariant sweeps the group while
	// nothing is wrong with the network — any election is spurious.
	rep.BaselineTerm = w.maxTerm()
	checker := NewWANStabilityChecker(rep.BaselineTerm)
	steadyOpen = true
	steadyEnd := w.sim.Now() + simnet.Time(stabilitySteady)
	var sweep func()
	sweep = func() {
		if w.sim.Now() >= steadyEnd {
			return
		}
		for _, d := range checker.Check(groupView(w.sim, w.g, "wan")) {
			w.rep.Violations = append(w.rep.Violations, Violation{
				AtUs: int64(w.sim.Now()), Invariant: checker.Name(), Detail: d,
			})
		}
		w.sim.Schedule(sweepEvery, sweep)
	}
	w.sim.Schedule(sweepEvery, sweep)
	w.sim.RunUntil(steadyEnd)
	steadyOpen = false
	rep.FinalSteadyTerm = w.maxTerm()
	if rep.SpuriousElections > 0 {
		w.violate(fmt.Sprintf("%d spurious election(s) during the steady window", rep.SpuriousElections))
	}

	// Leader kill: the survivors must elect a replacement within the
	// stated bound.
	leader := w.g.Leader()
	if leader == raft.None {
		w.violate("no leader at end of steady window")
		return rep, nil
	}
	// The bound is 3×ElectionTickMax′ + 2000, where ElectionTickMax′ is
	// the largest (possibly retuned) max timeout across survivors at kill
	// time: detection needs at most one full max timeout, and two more
	// cover a split first round plus commit of the no-op.
	worstMax := 0
	for _, id := range w.g.IDs() {
		if id == leader {
			continue
		}
		if _, max := w.g.Host(id).Node.ElectionTicks(); max > worstMax {
			worstMax = max
		}
	}
	bound := 3*worstMax + 2000
	rep.FailoverBound = bound
	w.g.Host(leader).Crash()
	killAt := w.sim.Now()
	deadline := killAt + simnet.Time(bound)*simnet.Time(simnet.Millisecond)
	elected := func() bool {
		id := w.g.Leader()
		return id != raft.None && id != leader
	}
	if !w.sim.RunWhileNot(elected, deadline) {
		w.violate(fmt.Sprintf("no replacement leader within %d ticks of leader kill", bound))
	}
	rep.FailoverTicks = int(simnet.Duration(w.sim.Now()-killAt) / simnet.Millisecond)

	for _, id := range w.g.IDs() {
		if h := w.g.Host(id); !h.Down() {
			min, max := h.Node.ElectionTicks()
			rep.TunedBands[id] = [2]int{min, max}
		}
	}
	return rep, nil
}
