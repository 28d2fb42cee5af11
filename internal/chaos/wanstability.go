package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// WAN stability track: one subgroup of a cluster.System on a
// multi-region latency topology (internal/simnet.Topology), driven to
// steady state and then through a leader kill, with a dedicated
// wan-stability invariant:
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

// What a stability run is: a 1×5 cluster on the wan50 preset, started
// on the paper's LAN timers U(50, 100) ms with a 15-tick heartbeat —
// exactly what misfires on a WAN until the tuner lifts it.
const (
	stabilityNodes         = 5
	stabilityTopology      = "wan50"
	stabilityHeartbeatTick = 15
)

// StabilityOptions parameterizes one WAN stability run (one subgroup of
// five on wan50, see stabilityNodes); Seed alone defines the run for a
// given profile.
type StabilityOptions struct {
	// Seed drives every rng in the run.
	Seed int64 `json:"seed"`

	// Profile is the cluster's (cluster.Options.Profile): the raft
	// flags of every node and whether the cluster's RTT→election-band
	// tuner runs (health.Retune: 10× the p99 RTT, clamped to [50, 5000]
	// ticks). The zero value is cluster.Paper. The run is a cluster
	// subgroup, not a bare raft group: its leader also heads a
	// one-member FedAvg layer and commits that layer's configuration to
	// the subgroup log every 50 ms (Sec. V-A1).
	Profile cluster.Profile `json:"profile,omitempty"`

	// Telemetry, when non-nil, is the cluster's, with its clock pinned
	// to virtual time (equal seeds ⇒ byte-identical snapshots).
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

// newWANStabilityChecker builds the wan-stability invariant over a
// steady-state baseline: no live node may be campaigning (Candidate)
// and no live node's term may exceed baselineTerm.
func newWANStabilityChecker(baselineTerm uint64) checker {
	return checker{Name: "wan-stability", Check: func(v view) []string {
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
	}}
}

// RunWANStability executes one WAN stability run on a one-subgroup
// cluster.System: bootstrap and warmup on the wan50 topology, a
// monitored steady-state window, then a leader kill with bounded
// failover. Deterministic per (options, seed).
func RunWANStability(o StabilityOptions) (*StabilityReport, error) {
	topo, err := simnet.Preset(stabilityTopology)
	if err != nil {
		return nil, err
	}
	sys, err := cluster.New(cluster.Options{
		NumSubgroups:    1,
		SubgroupSize:    stabilityNodes,
		ElectionTickMin: electionTickMin,
		ElectionTickMax: electionTickMax,
		HeartbeatTick:   stabilityHeartbeatTick,
		Latency:         linkLatency,
		Topology:        topo,
		Profile:         o.Profile,
		Seed:            o.Seed,
		Telemetry:       o.Telemetry, // cluster.New pins its clock to the sim
	})
	if err != nil {
		return nil, err
	}
	rep := &StabilityReport{Options: o, Topology: topo.Name, TunedBands: map[uint64][2]int{}}
	sim, g := sys.Sim, sys.SubgroupNet(0)
	violate := func(detail string) {
		rep.Violations = append(rep.Violations, Violation{AtUs: int64(sim.Now()), Invariant: "wan-stability", Detail: detail})
	}
	maxTerm := func() uint64 {
		var max uint64
		for _, n := range groupView(sim, g, "wan").Nodes {
			if !n.Down && n.Term > max {
				max = n.Term
			}
		}
		return max
	}
	steadyOpen := false
	sys.SetObserver(cluster.Observer{SubgroupState: func(_ uint64, _ int, st raft.State, _, _ uint64) {
		if steadyOpen && st == raft.Candidate {
			rep.SpuriousElections++
		}
	}})

	// Bootstrap: a leader must emerge within the warmup window.
	warmupEnd := sim.Now() + simnet.Time(stabilityWarmup)
	if err := sys.Bootstrap(stabilityWarmup); err != nil {
		violate(fmt.Sprintf("no leader elected during warmup: %v", err))
		return rep, nil
	}
	sim.RunUntil(warmupEnd)
	if g.Leader() == raft.None {
		violate("no leader at end of warmup")
		return rep, nil
	}

	// Steady state: the wan-stability invariant sweeps the group while
	// nothing is wrong with the network — any election is spurious.
	rep.BaselineTerm = maxTerm()
	checker := newWANStabilityChecker(rep.BaselineTerm)
	steadyOpen = true
	steadyEnd := sim.Now() + simnet.Time(stabilitySteady)
	var sweep func()
	sweep = func() {
		if sim.Now() >= steadyEnd {
			return
		}
		for _, d := range checker.Check(groupView(sim, g, "wan")) {
			violate(d)
		}
		sim.Schedule(sweepEvery, sweep)
	}
	sim.Schedule(sweepEvery, sweep)
	sim.RunUntil(steadyEnd)
	steadyOpen = false
	rep.FinalSteadyTerm = maxTerm()
	if rep.SpuriousElections > 0 {
		violate(fmt.Sprintf("%d spurious election(s) during the steady window", rep.SpuriousElections))
	}

	// Leader kill: the survivors must elect a replacement within the
	// stated bound.
	leader := g.Leader()
	if leader == raft.None {
		violate("no leader at end of steady window")
		return rep, nil
	}
	// The bound is 3×ElectionTickMax′ + 2000, where ElectionTickMax′ is
	// the largest (possibly retuned) max timeout across survivors at kill
	// time: detection needs at most one full max timeout, and two more
	// cover a split first round plus commit of the no-op.
	worstMax := 0
	for _, id := range g.IDs() {
		if _, max := g.Host(id).Node.ElectionTicks(); id != leader && max > worstMax {
			worstMax = max
		}
	}
	rep.FailoverBound = 3*worstMax + 2000
	if err := sys.CrashPeer(leader); err != nil {
		return nil, err
	}
	killAt := sim.Now()
	if _, _, err := sys.WaitSubgroupLeader(0, leader, simnet.Duration(rep.FailoverBound)*simnet.Millisecond); err != nil {
		violate(fmt.Sprintf("no replacement leader within %d ticks of leader kill", rep.FailoverBound))
	}
	rep.FailoverTicks = int(simnet.Duration(sim.Now()-killAt) / simnet.Millisecond)

	for _, id := range g.IDs() {
		if h := g.Host(id); !h.Down() {
			min, max := h.Node.ElectionTicks()
			rep.TunedBands[id] = [2]int{min, max}
		}
	}
	return rep, nil
}
