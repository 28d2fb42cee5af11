package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// Intervals of the world's periodic machinery, in virtual time.
const (
	workloadEvery = 75 * simnet.Millisecond  // client proposals
	sweepEvery    = 50 * simnet.Millisecond  // invariant sweeps
	retryEvery    = 100 * simnet.Millisecond // quiesce restart/marker retries
)

// kvWorld is the TargetRaftKV system under test: one raft group whose
// committed entries drive per-node kvStore replicas, plus a deterministic
// client workload.
type kvWorld struct {
	c       Campaign
	rep     *Report
	led     *ledger
	sim     *simnet.Sim
	g       *simnet.Group
	stores  map[uint64]*kvStore
	incarn  map[uint64]int
	propSeq int
	// workStopped halts the client workload at quiesce (the liveness
	// check needs a closed set of proposals to converge on); stopped
	// additionally halts the invariant sweeps at the end of the run.
	workStopped bool
	stopped     bool
	// frozen strands in-flight flap cycles once quiesce heals the net.
	frozen bool
}

// nodeRng derives the per-node timeout rng. Folding in the incarnation
// count keeps restarts deterministic without replaying the original
// timeout sequence.
func (w *kvWorld) nodeRng(id uint64) *rand.Rand {
	seed := w.c.Seed ^ (int64(id) * 0x9e3779b9) ^ (int64(w.incarn[id]) * 0x85ebca77)
	return rand.New(rand.NewSource(seed))
}

func (w *kvWorld) nodeConfig(id uint64, peers []uint64) raft.Config {
	st := w.stores[id]
	return w.c.Profile.Raft(raft.Config{
		ID:                id,
		Peers:             peers,
		ElectionTickMin:   w.c.ElectionTickMin,
		ElectionTickMax:   w.c.ElectionTickMax,
		HeartbeatTick:     w.c.HeartbeatTick,
		Rng:               w.nodeRng(id),
		SnapshotThreshold: 64,
		SnapshotState:     st.Snapshot,
		Telemetry:         w.c.Telemetry,
	})
}

// hook wires a host's callbacks into the ledger and its kvstore. The
// callbacks live on the Host, which survives Restart, so one hookup
// covers every incarnation.
func (w *kvWorld) hook(h *simnet.Host, id uint64) {
	st := w.stores[id]
	h.OnCommit = func(e raft.Entry) {
		w.rep.Stats.Commits++
		w.led.noteCommit(int64(w.sim.Now()), "raft", id, e)
		st.Apply(e)
	}
	h.OnSnapshot = func(s *raft.Snapshot) {
		if s.Data != nil {
			_ = st.Restore(s.Data)
		}
	}
	h.OnStateChange = func(state raft.State, term, leader uint64) {
		if state == raft.Leader {
			w.rep.Stats.LeaderChanges++
			w.led.noteLeader(int64(w.sim.Now()), "raft", term, id)
		}
	}
}

func newKVWorld(c Campaign, rep *Report) *kvWorld {
	w := &kvWorld{
		c:      c,
		rep:    rep,
		led:    newLedger(rep),
		sim:    simnet.New(),
		stores: make(map[uint64]*kvStore),
		incarn: make(map[uint64]int),
	}
	// Telemetry timestamps follow the campaign's virtual clock, keeping
	// equal-seed snapshots byte-identical.
	c.Telemetry.SetClock(func() int64 { return int64(w.sim.Now()) })
	w.g = simnet.NewGroup(w.sim, "chaos", simnet.Duration(c.LatencyUs),
		rand.New(rand.NewSource(c.Seed^0x51ed2701)))
	if c.Topology != "" {
		topo, err := simnet.Preset(c.Topology)
		if err != nil {
			panic(fmt.Sprintf("chaos: %v", err)) // Execute validates the name up front
		}
		w.g.Topo = topo
	}
	peers := make([]uint64, c.Nodes)
	for i := range peers {
		peers[i] = uint64(i + 1)
	}
	for _, id := range peers {
		w.stores[id] = newKVStore()
		node, err := raft.NewNode(w.nodeConfig(id, peers))
		if err != nil {
			panic(fmt.Sprintf("chaos: node config invalid: %v", err)) // normalize() guarantees validity
		}
		h, err := w.g.Add(node)
		if err != nil {
			panic(fmt.Sprintf("chaos: duplicate host: %v", err))
		}
		w.hook(h, id)
	}
	return w
}

// liveIDs returns sorted IDs filtered by down state.
func liveIDs(g *simnet.Group, down bool) []uint64 {
	var out []uint64
	for _, id := range g.IDs() {
		if g.Host(id).Down() == down {
			out = append(out, id)
		}
	}
	return out
}

// apply executes one resolved action against the group.
func (w *kvWorld) apply(a Action) {
	s := &w.rep.Stats
	switch a.Kind {
	case ActCrash:
		if live := liveIDs(w.g, false); len(live) > 0 {
			w.g.Host(live[a.Rank%len(live)]).Crash()
			s.Crashes++
		}
	case ActRestart:
		if down := liveIDs(w.g, true); len(down) > 0 {
			w.restart(down[a.Rank%len(down)])
		}
	case ActLeaderKill:
		if id := w.g.Leader(); id != raft.None {
			w.g.Host(id).Crash()
			s.Crashes++
		}
	case ActHeal:
		w.g.Calm()
		s.Heals++
	default:
		applyNetFault(a, w.sim, w.g, s, &w.frozen)
	}
}

// applyNetFault executes the partition, black-hole, loss, delay and flap
// actions, which differ between worlds only in the network they hit.
// frozen is the world's quiesce flag (see flap).
func applyNetFault(a Action, sim *simnet.Sim, net *simnet.Group, s *Stats, frozen *bool) {
	ids := net.IDs()
	if len(ids) == 0 {
		return
	}
	switch a.Kind {
	case ActPartition:
		side := make(map[uint64]bool, len(ids))
		aCount := 0
		for i, id := range ids {
			side[id] = a.Side>>(uint(i)%64)&1 == 1
			if side[id] {
				aCount++
			}
		}
		if aCount == 0 || aCount == len(ids) {
			return // degenerate mask — not a partition
		}
		net.Partition(side)
		s.Partitions++
	case ActBlackhole:
		id := ids[a.Rank%len(ids)]
		net.DropFilter = func(m raft.Message) bool { return m.From == id }
		s.NetFaults++
	case ActLoss:
		net.LossRate = a.Rate
		s.NetFaults++
	case ActDelay:
		net.Jitter = simnet.Duration(a.DelayUs)
		s.NetFaults++
	case ActFlap:
		s.Flaps++
		flap(sim, net, ids[a.Rank%len(ids)], 2+a.Rank%3, frozen)
	}
}

// Flap cycle timing: the dark window exceeds the detector's default
// silence threshold (3 heartbeats ≈ 48 ms at the smallest healthy
// setting), so each flap produces genuine Down verdicts that the
// recovery half of the cycle must retract.
const (
	flapDark  = 60 * simnet.Millisecond
	flapClear = 40 * simnet.Millisecond
)

// flap darkens id's outbound links on net for flapDark, releases them
// for flapClear, and repeats. Cycles abandon themselves once quiesce
// raises *frozen: they must not re-darken a link the liveness phase
// just healed.
func flap(sim *simnet.Sim, net *simnet.Group, id uint64, cycles int, frozen *bool) {
	if *frozen {
		return
	}
	net.DropFilter = func(m raft.Message) bool { return m.From == id }
	sim.Schedule(flapDark, func() {
		if *frozen {
			return
		}
		net.DropFilter = nil
		if cycles > 1 {
			sim.Schedule(flapClear, func() { flap(sim, net, id, cycles-1, frozen) })
		}
	})
}

func (w *kvWorld) restart(id uint64) {
	w.incarn[id]++
	h := w.g.Host(id)
	// Peers are fixed in this world; the restored node re-reads its own
	// persisted membership anyway.
	if err := h.Restart(w.nodeConfig(id, nil)); err != nil {
		w.incarn[id]--
		return
	}
	w.rep.Stats.Restarts++
}

// workload proposes one key-value write to the current leader.
func (w *kvWorld) propose() {
	id := w.g.Leader()
	if id == raft.None {
		return
	}
	h := w.g.Host(id)
	w.propSeq++
	key := fmt.Sprintf("k%03d", w.propSeq%37)
	// Deposed since Leader() looked: this write is lost, like any other
	// sent to a node that cannot take it.
	_ = h.Propose(encodeSet(key, fmt.Sprintf("v%d", w.propSeq)))
}

// groupView snapshots every node of one raft network for the checkers,
// in ascending id order.
func groupView(sim *simnet.Sim, g *simnet.Group, label string) View {
	v := View{NowUs: int64(sim.Now())}
	for _, id := range g.IDs() {
		h := g.Host(id)
		v.Nodes = append(v.Nodes, nodeView(id, label, h.Down(), h.Node.Status()))
	}
	return v
}

func nodeView(id uint64, group string, down bool, st raft.Status) NodeView {
	return NodeView{ID: id, Group: group, Down: down,
		State: st.State, Term: st.Term, Leader: st.Leader, Commit: st.CommitIndex, LastIndex: st.LastIndex}
}

// sweep runs the history-independent safety checks over current state.
func (w *kvWorld) sweep() {
	now := int64(w.sim.Now())
	var nodes []*raft.Node
	for _, id := range w.g.IDs() {
		h := w.g.Host(id)
		if h.Down() {
			continue
		}
		nodes = append(nodes, h.Node)
		w.led.noteCommitIndex(now, "raft", id, h.Node.CommitIndex())
		if h.Node.CommitIndex() > h.Node.LastIndex() {
			w.led.violate(now, "commit-bound",
				fmt.Sprintf("node %d commit index %d beyond last log index %d", id, h.Node.CommitIndex(), h.Node.LastIndex()))
		}
	}
	w.led.checkLogMatching(now, "raft", nodes)
	w.led.runExtra(w.c.extraCheckers, groupView(w.sim, w.g, "raft"))
}

// executeRaftKV runs one schedule against a fresh raft-kv world and
// appends its findings to rep.
func executeRaftKV(c Campaign, actions []Action, rep *Report) {
	w := newKVWorld(c, rep)
	// The workload re-arms itself until quiesce stops it.
	var pump func()
	pump = func() {
		if w.stopped || w.workStopped {
			return
		}
		w.propose()
		w.sim.Schedule(workloadEvery, pump)
	}
	w.sim.Schedule(workloadEvery, pump)
	runSchedule(w.sim, c, actions, w.apply, w.sweep, &w.stopped)
	quiesceKV(w)
	rep.Stats.FinalVirtualMs = int64(w.sim.Now()) / 1000
}

// runSchedule arms the fault actions and the periodic invariant sweep on
// sim — the sweep re-arms itself until *stopped — and runs it to the end
// of the schedule window.
func runSchedule(sim *simnet.Sim, c Campaign, actions []Action, apply func(Action), sweep func(), stopped *bool) {
	step := simnet.Duration(c.StepEveryUs)
	for _, a := range actions {
		sim.Schedule(simnet.Duration(a.Step+1)*step, func() { apply(a) })
	}
	var check func()
	check = func() {
		if *stopped {
			return
		}
		sweep()
		sim.Schedule(sweepEvery, check)
	}
	sim.Schedule(sweepEvery, check)
	sim.RunUntil(sim.Now() + simnet.Time(simnet.Duration(lastStep(actions, c.Steps)+1)*step))
}

// lastStep sizes the schedule window: one StepEvery past the last action
// (or the nominal step count for an empty schedule, so liveness is still
// exercised against an undisturbed run).
func lastStep(actions []Action, steps int) int {
	last := steps
	for _, a := range actions {
		if a.Step+1 > last {
			last = a.Step + 1
		}
	}
	return last
}

// quiesceKV is the liveness phase: all faults lifted, all nodes revived,
// the group must elect a leader, commit a marker entry and converge every
// replica onto identical state within the quiesce timeout.
func quiesceKV(w *kvWorld) {
	w.frozen = true
	w.g.Calm()
	w.workStopped = true
	deadline := w.sim.Now() + simnet.Time(w.c.QuiesceTimeoutUs)
	now := func() int64 { return int64(w.sim.Now()) }

	// Revive crashed nodes, retrying in case a restart races a pending
	// crash action that shares its virtual timestamp.
	var revive func()
	revive = func() {
		for _, id := range liveIDs(w.g, true) {
			w.restart(id)
		}
		if len(liveIDs(w.g, true)) > 0 && w.sim.Now() < deadline {
			w.sim.Schedule(retryEvery, revive)
		}
	}
	revive()

	if !w.sim.RunWhileNot(func() bool { return w.g.Leader() != raft.None }, deadline) {
		w.led.violate(now(), "liveness", "no leader elected after schedule quiesced")
		w.stopped = true
		return
	}

	// Drive a marker entry through the log until every replica applies
	// it; re-proposing tolerates leader churn during convergence.
	marker := fmt.Sprintf("seed-%d", w.c.Seed)
	var prod func()
	prod = func() {
		if w.stopped {
			return
		}
		if id := w.g.Leader(); id != raft.None {
			// A refusal is leader churn; prod proposes again.
			_ = w.g.Host(id).Propose(encodeSet("__chaos_marker", marker))
		}
		w.sim.Schedule(retryEvery, prod)
	}
	prod()
	converged := func() bool {
		ids := w.g.IDs()
		for _, id := range ids {
			if w.g.Host(id).Down() {
				return false
			}
			if w.stores[id].data["__chaos_marker"] != marker {
				return false
			}
		}
		for _, id := range ids[1:] {
			if !kvEqual(w.stores[ids[0]], w.stores[id]) {
				return false
			}
		}
		return true
	}
	if !w.sim.RunWhileNot(converged, deadline) {
		w.led.violate(now(), "liveness",
			fmt.Sprintf("replicas did not all apply the marker entry within %.0fms of quiesce",
				simnet.Duration(w.c.QuiesceTimeoutUs).Ms()))
		w.stopped = true
		return
	}

	// With the marker applied everywhere, full state-machine agreement
	// must hold (any divergence would also be a commit-safety breach —
	// this is the end-to-end restatement).
	ids := w.g.IDs()
	for _, id := range ids[1:] {
		if !kvEqual(w.stores[ids[0]], w.stores[id]) {
			w.led.violate(now(), "state-machine-agreement",
				fmt.Sprintf("kvstore replicas %d and %d diverged after quiesce", ids[0], id))
		}
	}
	w.sweep()
	w.stopped = true
}
