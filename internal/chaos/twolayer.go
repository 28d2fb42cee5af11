package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/health"
	"repro/internal/raft"
	"repro/internal/sac"
	"repro/internal/simnet"
)

// Byzantine two-layer rounds draw model coordinates from [16, 141]: the
// nonzero floor makes poison-scale shares provably out of range (the
// largest of a peer's shares carries ≥ 1/n of its model, so a ×1000
// model pushes it past any honest share), which keeps range-guard
// detection deterministic. The tolerance allows one sign-flipped or
// excluded model per subgroup plus median-vs-mean spread.
const (
	byzModelMax      = 141.0
	byzTwoLayerBound = 2 * byzModelMax
)

// twWorld is the TargetTwoLayer system under test: the paper's two-layer
// Raft deployment (internal/cluster) — m subgroup groups plus the FedAvg
// layer formed from their leaders — subjected to the same fault schedule
// vocabulary as the raft-kv world, with group-qualified targets.
type twWorld struct {
	c       Campaign
	rep     *Report
	led     *ledger
	sys     *cluster.System
	m       int // number of subgroups; group index m addresses the FedAvg layer
	stopped bool
	// frozen is raised when quiesce begins: in-flight flap cycles must
	// not re-darken a link the liveness phase just healed.
	frozen bool
	// healthSeen indexes into sys.HealthTransitions(): verdicts before
	// it have already been screened by the false-Down checker.
	healthSeen int
	// byz maps subgroup index → adversary plan (local peer index →
	// behavior) accumulated from ActByzantine actions. A non-empty map
	// switches the quiesce aggregation round into robust mode.
	byz map[int]sac.AdversaryPlan
	// churned is raised by the first completed ActChurn operation: the
	// quiesce phase then waits for in-flight admissions/departures to
	// settle before judging liveness.
	churned bool
}

// newCluster is the one recipe by which chaos builds a two-layer system
// from a (normalized) campaign: the two-layer target and every oracle
// episode that needs a control plane call it.
func newCluster(c Campaign) *cluster.System {
	var topo *simnet.Topology
	if c.Topology != "" {
		var err error
		if topo, err = simnet.Preset(c.Topology); err != nil {
			panic(fmt.Sprintf("chaos: %v", err)) // Execute validates the name up front
		}
	}
	sys, err := cluster.New(cluster.Options{
		NumSubgroups:    c.Subgroups,
		SubgroupSize:    c.SubgroupSize,
		ElectionTickMin: c.ElectionTickMin,
		ElectionTickMax: c.ElectionTickMax,
		HeartbeatTick:   c.HeartbeatTick,
		Latency:         simnet.Duration(c.LatencyUs),
		Topology:        topo,
		Profile:         c.Profile,
		Seed:            c.Seed,
		Telemetry:       c.Telemetry, // cluster.New pins its clock to the sim
	})
	if err != nil {
		panic(fmt.Sprintf("chaos: two-layer options invalid: %v", err)) // normalize() guarantees validity
	}
	return sys
}

// executeTwoLayer runs one schedule against a fresh two-layer cluster.
func executeTwoLayer(c Campaign, actions []Action, rep *Report) {
	sys := newCluster(c)
	w := &twWorld{c: c, rep: rep, led: newLedger(rep), sys: sys, m: sys.NumSubgroups(),
		byz: make(map[int]sac.AdversaryPlan)}

	// Election safety is checked from raw role transitions on both layers.
	sys.SetObserver(cluster.Observer{
		SubgroupState: func(peer uint64, subgroup int, st raft.State, term, leader uint64) {
			if st == raft.Leader {
				rep.Stats.LeaderChanges++
				w.led.noteLeader(int64(sys.Sim.Now()), fmt.Sprintf("sub%d", subgroup), term, peer)
			}
		},
		FedState: func(peer uint64, st raft.State, term, leader uint64) {
			if st == raft.Leader {
				rep.Stats.LeaderChanges++
				w.led.noteLeader(int64(sys.Sim.Now()), "fed", term, peer)
			}
		},
	})

	if err := sys.Bootstrap(60 * simnet.Second); err != nil {
		w.led.violate(int64(sys.Sim.Now()), "liveness", fmt.Sprintf("bootstrap on a healthy network failed: %v", err))
		return
	}

	runSchedule(sys.Sim, c, actions, w.apply, w.sweep, &w.stopped)
	w.quiesce()
	w.stopped = true
	rep.Stats.FinalVirtualMs = int64(sys.Sim.Now()) / 1000
}

// net resolves an action's group index to the sub-network it targets.
func (w *twWorld) net(group int) *simnet.Group {
	g := group % (w.m + 1)
	if g == w.m {
		return w.sys.FedNet()
	}
	return w.sys.SubgroupNet(g)
}

// peerPool lists the action's candidate peers — the members of the
// targeted subgroup, or every peer when the action addresses the FedAvg
// layer (whose membership is the floating set of subgroup leaders) —
// that are down, or that are not.
func (w *twWorld) peerPool(group int, down bool) []uint64 {
	pool := w.sys.PeerIDs()
	if g := group % (w.m + 1); g < w.m {
		pool = w.sys.SubgroupPeers(g)
	}
	var out []uint64
	for _, id := range pool {
		if w.sys.Peer(id).Down() == down {
			out = append(out, id)
		}
	}
	return out
}

func (w *twWorld) apply(a Action) {
	s := &w.rep.Stats
	switch a.Kind {
	case ActCrash:
		if live := w.peerPool(a.Group, false); len(live) > 0 {
			_ = w.sys.CrashPeer(live[a.Rank%len(live)])
			s.Crashes++
		}
	case ActRestart:
		if down := w.peerPool(a.Group, true); len(down) > 0 {
			if err := w.sys.RestartPeer(down[a.Rank%len(down)]); err == nil {
				s.Restarts++
			}
		}
	case ActLeaderKill:
		g := a.Group % (w.m + 1)
		var id uint64
		if g == w.m {
			id = w.sys.FedAvgLeader()
		} else {
			id = w.sys.SubgroupLeader(g)
		}
		if id != raft.None {
			_ = w.sys.CrashPeer(id)
			s.Crashes++
		}
	case ActPartition, ActBlackhole, ActLoss, ActDelay, ActFlap:
		applyNetFault(a, w.sys.Sim, w.net(a.Group), s, &w.frozen)
	case ActHeal:
		w.calmAll()
		s.Heals++
	case ActByzantine:
		g := a.Group % w.m
		n := len(w.sys.SubgroupPeers(g))
		// One adversary per subgroup, and only where the honest-majority
		// precondition 3f < n holds at f = 1.
		if len(w.byz[g]) > 0 || n < 4 {
			return
		}
		b := sac.Behavior(a.Behavior)
		if b == sac.ByzNone {
			b = sac.ByzInflateSubtotal
		}
		w.byz[g] = sac.AdversaryPlan{a.Rank % n: b}
		s.Byzantines++
	case ActChurn:
		// Rank selects both the operation and (for departures and
		// handoffs) the target among the eligible members. Operations
		// that are currently impossible — floor reached, no live target —
		// simply skip; the schedule stays deterministic because
		// eligibility is itself a deterministic function of the run.
		g := a.Group % w.m // churn addresses subgroups, never the fed layer
		switch a.Rank % 3 {
		case 0: // admit a brand-new peer
			if _, err := w.sys.AddPeer(g); err == nil {
				s.Joins++
				w.churned = true
			}
		case 1: // graceful departure (model handoff + directory leave)
			cands := w.churnCandidates(g, false)
			if len(cands) > 0 {
				if err := w.sys.DepartPeer(cands[(a.Rank/3)%len(cands)]); err == nil {
					s.Departs++
					w.churned = true
				}
			}
		default: // same-identity handoff to a successor process
			cands := w.churnCandidates(g, true)
			if len(cands) > 0 {
				if _, err := w.sys.ReplacePeer(cands[(a.Rank/3)%len(cands)]); err == nil {
					s.Handoffs++
					w.churned = true
				}
			}
		}
	}
}

// churnCandidates lists subgroup g's members eligible for a departure or
// (mustLive) a same-identity handoff: admitted, not already departing,
// and live when the operation needs a running process.
func (w *twWorld) churnCandidates(g int, mustLive bool) []uint64 {
	var out []uint64
	for _, id := range w.sys.SubgroupPeers(g) {
		p := w.sys.Peer(id)
		if p == nil || p.Departing() {
			continue
		}
		if mustLive && p.Down() {
			continue
		}
		out = append(out, id)
	}
	return out
}

func (w *twWorld) calmAll() {
	for g := 0; g < w.m; g++ {
		w.sys.SubgroupNet(g).Calm()
	}
	w.sys.FedNet().Calm()
}

// sweep checks log matching, committed-prefix agreement, serial
// membership change and commit monotonicity on every subgroup, and the
// first three on the FedAvg layer. (FedAvg-layer commit monotonicity per
// peer is deliberately not asserted: a peer that loses leadership and
// later rejoins starts a fresh fed node, which is correct behaviour.)
func (w *twWorld) sweep() {
	now := int64(w.sys.Sim.Now())
	for g := 0; g < w.m; g++ {
		label := fmt.Sprintf("sub%d", g)
		net := w.sys.SubgroupNet(g)
		var nodes []*raft.Node
		for _, id := range net.IDs() {
			h := net.Host(id)
			if h.Down() {
				continue
			}
			nodes = append(nodes, h.Node)
			w.led.noteCommitIndex(now, label, id, h.Node.CommitIndex())
		}
		w.led.checkLogMatching(now, label, nodes)
		w.led.checkCommittedAgreement(now, label, nodes)
		w.led.checkConfChangeSerial(now, label, nodes)
	}
	fed := w.sys.FedNet()
	var fedNodes []*raft.Node
	for _, id := range fed.IDs() {
		if h := fed.Host(id); !h.Down() {
			fedNodes = append(fedNodes, h.Node)
		}
	}
	w.led.checkLogMatching(now, "fed", fedNodes)
	w.led.checkCommittedAgreement(now, "fed", fedNodes)
	w.led.checkConfChangeSerial(now, "fed", fedNodes)
	w.checkHealth()
	w.led.runExtra(w.c.extraCheckers, w.view())
}

// checkHealth screens detector verdicts issued since the last sweep
// against the cluster's shadow delivery ledger: a Down verdict whose
// shadow silence gap is below the detector's threshold condemned a peer
// whose messages were still arriving — a false positive.
func (w *twWorld) checkHealth() {
	if !w.c.Profile.Detector() {
		return
	}
	trans := w.sys.HealthTransitions()
	for _, tr := range trans[w.healthSeen:] {
		if tr.To == health.Down && tr.ShadowGapUs < tr.ThresholdUs {
			w.led.violate(tr.AtUs, "health-false-down",
				fmt.Sprintf("peer %d declared %d Down with delivery gap %dµs < threshold %dµs",
					tr.Owner, tr.Peer, tr.ShadowGapUs, tr.ThresholdUs))
		}
	}
	w.healthSeen = len(trans)
}

func (w *twWorld) view() View {
	v := View{NowUs: int64(w.sys.Sim.Now())}
	for _, id := range w.sys.PeerIDs() {
		p := w.sys.Peer(id)
		v.Nodes = append(v.Nodes, nodeView(id, fmt.Sprintf("sub%d", p.Subgroup), p.Down(), p.SubStatus()))
		if fst, ok := p.FedStatus(); ok && !p.Down() {
			v.Nodes = append(v.Nodes, nodeView(id, "fed", false, fst))
		}
	}
	return v
}

// quiesce is the two-layer liveness phase: faults lifted and peers
// revived, every subgroup and the FedAvg layer must re-elect leaders, and
// a full two-layer aggregation round using exactly those leaders must
// complete and equal the plaintext global mean — the paper's end-to-end
// recovery claim made literal.
func (w *twWorld) quiesce() {
	sys := w.sys
	w.frozen = true // strands in-flight flap cycles
	w.calmAll()
	deadline := sys.Sim.Now() + simnet.Time(w.c.QuiesceTimeoutUs)
	// Re-convergence is bounded from the moment the last fault lifts,
	// not from whenever the liveness waits happen to finish.
	reconvergeBy := sys.Sim.Now() + simnet.Time(w.c.ReconvergeBoundUs)
	now := func() int64 { return int64(sys.Sim.Now()) }

	// Revive every crashed peer, and every crashed FedAvg-layer node: a
	// schedule may have felled a majority of the layer's members, which
	// the join protocol alone cannot recover from.
	var revive func()
	revive = func() {
		anyDown := false
		for _, id := range sys.PeerIDs() {
			if sys.Peer(id).Down() {
				if err := sys.RestartPeer(id); err != nil {
					anyDown = true
					continue
				}
			}
			_ = sys.ReviveFedNode(id)
		}
		if anyDown && sys.Sim.Now() < deadline {
			sys.Sim.Schedule(retryEvery, revive)
		}
	}
	revive()

	// Continuous churn must settle before liveness is judged: an
	// admission or departure still in flight keeps changing membership,
	// and its retry loops only need the leaders that the calm network is
	// now re-electing.
	if w.churned && !sys.Sim.RunWhileNot(sys.ChurnIdle, deadline) {
		w.led.violate(now(), "churn-liveness",
			"admissions/departures still in flight after the schedule quiesced")
		return
	}

	elected := func() bool {
		for g := 0; g < w.m; g++ {
			if sys.SubgroupLeader(g) == raft.None {
				return false
			}
		}
		return sys.FedAvgLeader() != raft.None
	}
	if !sys.Sim.RunWhileNot(elected, deadline) {
		missing := "FedAvg layer"
		for g := 0; g < w.m; g++ {
			if sys.SubgroupLeader(g) == raft.None {
				missing = fmt.Sprintf("subgroup %d", g)
				break
			}
		}
		w.led.violate(now(), "liveness", fmt.Sprintf("%s had no leader after schedule quiesced", missing))
		return
	}
	// Let the freshly elected leaders finish joining the FedAvg layer so
	// the round spec reflects a settled configuration.
	sys.Sim.RunWhileNot(func() bool {
		for g := 0; g < w.m; g++ {
			l := sys.SubgroupLeader(g)
			if l == raft.None || !sys.Peer(l).Joined() {
				return false
			}
		}
		return true
	}, deadline)

	// Directory invariants: every live FedAvg-layer replica must agree
	// (equal checksums — replicas lag commits only while appends are in
	// flight, so the calm network converges them), and the agreed state
	// must record exactly the admitted membership with sound share
	// indices. Checked on every campaign: the directory is seeded at
	// bootstrap, so a fault-only schedule must preserve it too.
	if !sys.Sim.RunWhileNot(sys.DirectoryConverged, deadline) {
		detail := "live directory replicas still disagree after the schedule quiesced:"
		for _, id := range sys.DirectoryReplicas() {
			d := sys.Peer(id).DirectoryReplica()
			detail += fmt.Sprintf(" peer%d{v%d len%d sum%x}", id, d.Version(), d.Len(), d.Checksum())
		}
		w.led.violate(now(), "directory-convergence", detail)
	} else if !sys.DirectoryMatchesMembership() {
		w.led.violate(now(), "share-index-soundness",
			"the converged directory does not match the admitted membership (or assigns unsound share indices)")
	}

	// Bounded re-convergence: with the network calm and every peer
	// revived, no live detector may keep a stale Suspect/Down verdict
	// about a live peer.
	if w.c.Profile.Detector() && !sys.Sim.RunWhileNot(sys.DetectorsConverged, reconvergeBy) {
		w.led.violate(now(), "health-reconvergence",
			fmt.Sprintf("detectors still hold non-Up verdicts about live peers %.0fms after the last fault",
				simnet.Duration(w.c.ReconvergeBoundUs).Ms()))
	}

	// Virtual time passed in the waits above, and a leader the heal
	// exposed as stale may have been deposed meanwhile: the round runs
	// with the leaders in place now (it reports a group still leaderless
	// when this wait ends). Every group was shown able to elect above, so
	// when the waits above spent the deadline — the join wait does,
	// whenever a new leader's committed FedAvg configuration names no
	// current leader and it polls in vain — a group caught between two
	// leaders gets one re-convergence bound more, instead of the round
	// being judged on the instant the deadline happens to fall on.
	sys.Sim.RunWhileNot(elected, max(deadline, sys.Sim.Now()+simnet.Time(w.c.ReconvergeBoundUs)))
	w.aggregationRound()
	w.sweep()
}

// aggregationRound runs one two-layer SAC round with the leaders the
// chaos left in place and checks its exactness against the plaintext
// global mean.
func (w *twWorld) aggregationRound() {
	sys := w.sys
	now := int64(sys.Sim.Now())
	// The elected leaders as in-subgroup indices, and the subgroup of the
	// peer leading the FedAvg layer.
	geo := sys.RoundGeometry()
	for i, idx := range geo.Leaders {
		if idx < 0 {
			g := geo.Subgroups[i]
			w.led.violate(now, "liveness", fmt.Sprintf("subgroup %d leader %d not among its peers", g, sys.SubgroupLeader(g)))
			return
		}
	}
	total := 0
	for _, n := range geo.Sizes {
		total += n
	}

	guarded := len(w.byz) > 0
	cfg := core.Config{
		Sizes:     geo.Sizes,
		K:         []int{w.c.SubgroupSize - 1}, // k-out-of-n where sizes allow; clamped to n below that
		Telemetry: w.c.Telemetry,
	}
	if guarded {
		// Robust mode needs 3-way share replication (k = n−2) so the
		// holder cross-check can outvote the marked adversaries.
		cfg.K = []int{w.c.SubgroupSize - 2}
		cfg.Guard = &sac.Guard{ShareBound: byzModelMax, CrossCheck: true}
		cfg.Aggregator = fl.CoordinateMedian{}
	}
	coreSys, err := core.NewSystem(cfg, rand.New(rand.NewSource(w.c.Seed^0x7f4a7c15)))
	if err != nil {
		w.led.violate(now, "liveness", fmt.Sprintf("aggregation config invalid: %v", err))
		return
	}
	models := make([][]float64, total)
	rng := rand.New(rand.NewSource(w.c.Seed ^ 0x2545f491))
	for i := range models {
		models[i] = []float64{math.Round(rng.Float64()*1000) / 8, math.Round(rng.Float64()*1000) / 8}
		if guarded {
			// Lift coordinates to [16, 141] so poison-scale shares are
			// provably forged (see byzModelMax).
			models[i][0] += 16
			models[i][1] += 16
		}
	}
	res, err := coreSys.AggregateRound(models, core.RoundSpec{Leaders: geo.Leaders, FedLeader: geo.FedLeader, Adversary: w.byz})
	if err != nil {
		w.led.violate(now, "liveness", fmt.Sprintf("aggregation round with elected leaders failed: %v", err))
		return
	}
	w.rep.Stats.SACRounds++
	if guarded {
		w.checkByzantineRound(now, geo.Sizes, models, res)
		return
	}
	want := plainMean(models, nil)
	if d := firstBeyond(res.Global, want, 1e-9); d >= 0 {
		w.led.violate(now, "sac-exactness",
			fmt.Sprintf("post-quiesce round: global[%d] = %g, plaintext mean %g", d, res.Global[d], want[d]))
	}
}

// checkByzantineRound replaces the exactness check when the schedule
// marked adversaries: the robust global must stay within
// byzTwoLayerBound of the honest-only plaintext mean, and provably
// forged (poison-scale) peers must appear among the excluded.
func (w *twWorld) checkByzantineRound(now int64, sizes []int, models [][]float64, res *core.RoundResult) {
	var honest []int
	offset := 0
	for g, n := range sizes {
		for i := 0; i < n; i++ {
			if _, bad := w.byz[g][i]; !bad {
				honest = append(honest, offset+i)
			}
		}
		offset += n
	}
	want := plainMean(models, honest)
	if d := firstBeyond(res.Global, want, byzTwoLayerBound); d >= 0 {
		w.led.violate(now, "byzantine-robust",
			fmt.Sprintf("post-quiesce robust round: global[%d] = %g deviates > %g from honest mean %g",
				d, res.Global[d], byzTwoLayerBound, want[d]))
		return
	}
	for g, plan := range w.byz {
		for p, b := range plan {
			if b == sac.ByzPoisonScale && !slices.Contains(res.ExcludedPeers[g], p) {
				w.led.violate(now, "byzantine-detection",
					fmt.Sprintf("post-quiesce robust round: poison-scale peer %d of subgroup %d escaped the range guard", p, g))
			}
		}
		w.rep.Stats.ByzantineDetections += len(res.ExcludedPeers[g])
	}
}
