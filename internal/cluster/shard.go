package cluster

// This file is the elastic sharding layer on top of the continuous-churn
// control plane (churn.go): subgroups split when they grow past 2n−1
// members and merge into a sibling when they shrink below n/2, with the
// PR-9 replicated directory as the shard map. Re-sharding runs at round
// boundaries — the same moment the SAC layer re-reads the directory —
// so a round never observes a half-moved subgroup.
//
// Both operations reuse the churn machinery's building blocks: committed
// ConfChanges through the respective leaders, idempotent directory joins
// (DirJoin re-registration atomically releases the old slot and claims
// the new one), and detector rebuild + watch refresh on every peer whose
// membership view changed. A split retires no raft state — the stayers'
// group continues under its shrunk membership, and the movers form a
// brand-new raft group. A merge retires the source group wholesale: once
// every member has re-registered in the target, nobody is left to care
// about the old log, and its directory slot simply goes empty (empty
// slots are kept, not renumbered, so subgroup ids stay stable).

import (
	"fmt"
	"slices"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// Sharding event kinds, on the same timeline as churn events.
const (
	// EvSubgroupSplit: a subgroup split completed — movers committed out
	// of the source raft group, formed a new one, and re-registered.
	EvSubgroupSplit EventKind = "subgroup-split"
	// EvSubgroupMerged: a subgroup merged into a sibling — every member
	// re-registered in the target and the source group was retired.
	EvSubgroupMerged EventKind = "subgroup-merged"
)

// ShardActionKind labels one rebalance step.
type ShardActionKind string

const (
	ShardSplit ShardActionKind = "split"
	ShardMerge ShardActionKind = "merge"
)

// ShardAction is one planned (or executed) re-sharding step.
type ShardAction struct {
	Kind     ShardActionKind
	Subgroup int      // source subgroup
	Target   int      // new subgroup (split) or absorbing subgroup (merge)
	Moved    []uint64 // peers that changed subgroup
}

// ShardPlan reads the directory (the shard map) and returns the next
// re-sharding action, or nil when every subgroup is within bounds:
// split when a subgroup exceeds 2n−1 members, merge when it fell below
// n/2 and a sibling exists to absorb it. One action at a time — the
// caller re-plans after executing, so plans never go stale. DepartPeer
// keeps every subgroup at two members or more, so graceful departures
// can reach the merge trigger (2·size < n) only for n ≥ 5.
func (s *System) ShardPlan() *ShardAction {
	d := s.Directory()
	if d == nil {
		return nil
	}
	n := s.opts.SubgroupSize // the target size the thresholds derive from
	for g := range s.bySub {
		size := len(d.Subgroup(g))
		if size > 2*n-1 {
			return &ShardAction{Kind: ShardSplit, Subgroup: g, Target: len(s.bySub)}
		}
		if size > 0 && 2*size < n {
			if t := s.mergeTarget(g); t >= 0 {
				return &ShardAction{Kind: ShardMerge, Subgroup: g, Target: t}
			}
		}
	}
	return nil
}

// mergeTarget picks the smallest other non-empty subgroup (lowest index
// on ties) as the absorber, or -1 when none exists.
func (s *System) mergeTarget(g int) int {
	d := s.Directory()
	if d == nil {
		return -1
	}
	best, bestSize := -1, 0
	for t := range s.bySub {
		if t == g {
			continue
		}
		size := len(d.Subgroup(t))
		if size == 0 {
			continue
		}
		if best == -1 || size < bestSize {
			best, bestSize = t, size
		}
	}
	return best
}

// Rebalance plans and executes re-sharding actions until the shard map
// is within bounds, running the simulation up to limit virtual time per
// action. Returns the executed actions.
func (s *System) Rebalance(limit simnet.Duration) ([]ShardAction, error) {
	var done []ShardAction
	maxSteps := 8*len(s.bySub) + 8 // each action strictly shrinks the imbalance
	for step := 0; step < maxSteps; step++ {
		plan := s.ShardPlan()
		if plan == nil {
			return done, nil
		}
		var (
			act *ShardAction
			err error
		)
		switch plan.Kind {
		case ShardSplit:
			act, err = s.SplitSubgroup(plan.Subgroup, limit)
		case ShardMerge:
			act, err = s.MergeSubgroup(plan.Subgroup, limit)
		}
		if err != nil {
			return done, err
		}
		done = append(done, *act)
	}
	return done, fmt.Errorf("cluster: rebalance did not converge after %d actions", maxSteps)
}

// await runs steps to completion through drive, blocking on the
// simulator: split and merge run at a round boundary, with the caller
// waiting. Each step gets at most limit.
func (s *System) await(limit simnet.Duration, steps ...step) error {
	var err error
	finished := false
	s.drive(steps, limit, func(e error) { err, finished = e, true })
	// drive gives up on a step at the first poll past its limit, so it
	// finishes inside this bound.
	s.Sim.RunWhileNot(func() bool { return finished },
		s.Sim.Now()+simnet.Time(len(steps))*simnet.Time(limit+joinPollInterval))
	return err
}

// forgetAcross scrubs ids from every detector and RTT tracker of peers
// in subgroup g — after a split or merge the two sides no longer share
// a group and must not hold verdicts about each other.
func (s *System) forgetAcross(g int, ids []uint64) {
	for _, mid := range s.bySub[g] {
		p := s.peers[mid]
		if p == nil {
			continue
		}
		for _, id := range ids {
			if p.det != nil {
				p.det.Forget(id)
			}
			if p.rtt != nil {
				p.rtt.Forget(id)
			}
			delete(s.lastSeen[mid], id)
		}
	}
}

// SplitSubgroup splits subgroup g in two: the first ceil(size/2) members
// (by admission order, with the current leader kept among them) stay;
// the rest commit out of g's raft group, form a brand-new raft group,
// elect a leader, and re-register in the directory under the new
// subgroup with fresh dense share indices. Runs the simulation for at
// most limit per committed step.
func (s *System) SplitSubgroup(g int, limit simnet.Duration) (*ShardAction, error) {
	if g < 0 || g >= len(s.bySub) {
		return nil, fmt.Errorf("cluster: no subgroup %d", g)
	}
	if !s.ChurnIdle() {
		return nil, fmt.Errorf("cluster: churn in flight; split must run at a round boundary")
	}
	ids := append([]uint64(nil), s.bySub[g]...)
	if len(ids) < 4 {
		return nil, fmt.Errorf("cluster: subgroup %d has %d members; splitting needs ≥ 4", g, len(ids))
	}
	keep := (len(ids) + 1) / 2
	stay := append([]uint64(nil), ids[:keep]...)
	move := append([]uint64(nil), ids[keep:]...)
	// The current leader must stay: its raft state (and its FedAvg-layer
	// membership) anchors the shrunk group. Swap it into the stay half.
	if l := s.SubgroupLeader(g); l != raft.None && slices.Contains(move, l) {
		for i, id := range move {
			if id == l {
				move[i], stay[0] = stay[0], move[i]
				break
			}
		}
	}

	// Phase A — commit the movers out of g's raft group one by one, then
	// take their old hosts down.
	var removals []step
	for _, id := range move {
		removals = append(removals, s.subgroupChange(g, raft.ConfChange{NodeID: id}))
	}
	if err := s.await(limit, removals...); err != nil {
		return nil, fmt.Errorf("cluster: split: %w", err)
	}
	for _, id := range move {
		s.subGroups[g].Remove(id)
	}
	s.bySub[g] = stay

	// Phase B — the movers form a new raft group and elect a leader.
	ng := len(s.bySub)
	s.subGroups = append(s.subGroups, s.newGroup(fmt.Sprintf("subgroup-%d", ng), s.opts.Seed*31+int64(ng)))
	s.bySub = append(s.bySub, append([]uint64(nil), move...))
	for _, id := range move {
		if err := s.addSubNode(s.peers[id], ng, kindShard, move); err != nil {
			return nil, err
		}
	}
	if err := s.await(limit, step{
		what: fmt.Sprintf("leader election in new subgroup %d", ng),
		done: func() bool { return s.SubgroupLeader(ng) != raft.None },
	}); err != nil {
		return nil, fmt.Errorf("cluster: split: %w", err)
	}

	// Phase C — re-register the movers in the directory under the new
	// subgroup, one committed entry each: a fresh subgroup has every slot
	// free, so the i-th mover lands on share index i.
	var moves []step
	for _, id := range move {
		moves = append(moves, s.directoryJoin(id, ng))
	}
	if err := s.await(limit, moves...); err != nil {
		return nil, fmt.Errorf("cluster: split: %w", err)
	}

	// The two halves no longer share a group: scrub cross-half verdicts
	// and realign every watch set.
	s.forgetAcross(g, move)
	s.forgetAcross(ng, stay)
	s.refreshWatches(g)
	s.refreshWatches(ng)

	s.opts.Telemetry.Counter("cluster/shard/splits").Inc()
	s.opts.Telemetry.Counter("cluster/shard/moved").Add(int64(len(move)))
	s.record(EvSubgroupSplit, move[0], g)
	return &ShardAction{Kind: ShardSplit, Subgroup: g, Target: ng, Moved: move}, nil
}

// MergeSubgroup dissolves subgroup g into the smallest sibling: each
// member joins the target raft group through a committed ConfChange and
// re-registers in the directory under the target subgroup at the lowest
// free share index. The source raft group is retired wholesale — once
// its last member re-registered, nobody remains to read its log — and
// its slot stays empty (ids are never renumbered). Runs the simulation
// for at most limit per committed step.
func (s *System) MergeSubgroup(g int, limit simnet.Duration) (*ShardAction, error) {
	if g < 0 || g >= len(s.bySub) {
		return nil, fmt.Errorf("cluster: no subgroup %d", g)
	}
	if !s.ChurnIdle() {
		return nil, fmt.Errorf("cluster: churn in flight; merge must run at a round boundary")
	}
	target := s.mergeTarget(g)
	if target < 0 {
		return nil, fmt.Errorf("cluster: no sibling subgroup to absorb %d", g)
	}
	move := append([]uint64(nil), s.bySub[g]...)
	if len(move) == 0 {
		return nil, fmt.Errorf("cluster: subgroup %d is already empty", g)
	}

	// Retire the source group's hosts first: its raft state is dead
	// weight once the directory is the authority, and a half-alive source
	// group could still elect leaders and join the FedAvg layer.
	for _, id := range move {
		s.subGroups[g].Remove(id)
	}
	s.bySub[g] = nil

	for _, mid := range move {
		p := s.peers[mid]
		// The new node starts from the target's committed membership (not
		// including itself) so it cannot campaign before its addition
		// commits — the AddPeer recipe.
		members := s.subgroupMembers(target)
		if members == nil {
			members = append([]uint64(nil), s.bySub[target]...)
		}
		if err := s.addSubNode(p, target, kindShard, members); err != nil {
			return nil, err
		}
		if err := s.await(limit,
			s.subgroupChange(target, raft.ConfChange{Add: true, NodeID: mid}),
			s.directoryJoin(mid, target),
		); err != nil {
			return nil, fmt.Errorf("cluster: merge: %w", err)
		}
		s.bySub[target] = append(s.bySub[target], mid)
		s.refreshWatches(target)
	}

	s.opts.Telemetry.Counter("cluster/shard/merges").Inc()
	s.opts.Telemetry.Counter("cluster/shard/moved").Add(int64(len(move)))
	s.record(EvSubgroupMerged, move[0], g)
	return &ShardAction{Kind: ShardMerge, Subgroup: g, Target: target, Moved: move}, nil
}
