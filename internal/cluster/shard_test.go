package cluster

import (
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// shardOpts is a deployment for elastic-sharding tests: degree-4
// subgroups so the split threshold (2n−1 = 7) and the merge threshold
// (2·size < 4, i.e. size 1) are both reachable via AddPeer/DepartPeer.
func shardOpts(seed int64) Options {
	return Options{
		NumSubgroups:    2,
		SubgroupSize:    4,
		ElectionTickMin: 50,
		Latency:         5 * simnet.Millisecond,
		Profile:         LAN,
		Seed:            seed,
	}
}

const shardStepLimit = 30 * simnet.Second

// growSubgroup admits extra peers into subgroup g until it holds want
// members.
func growSubgroup(t *testing.T, s *System, g, want int) {
	t.Helper()
	for len(s.SubgroupPeers(g)) < want {
		id, err := s.AddPeer(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitAdmitted(id, shardStepLimit); err != nil {
			t.Fatal(err)
		}
	}
	settle(s, 500*simnet.Millisecond)
}

// shrinkSubgroup gracefully departs subgroup g's newest members until it
// holds want.
func shrinkSubgroup(t *testing.T, s *System, g, want int) {
	t.Helper()
	for len(s.SubgroupPeers(g)) > want {
		ids := s.SubgroupPeers(g)
		id := ids[len(ids)-1]
		if err := s.DepartPeer(id); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitDeparted(id, shardStepLimit); err != nil {
			t.Fatal(err)
		}
	}
	settle(s, 500*simnet.Millisecond)
}

// checkShardInvariants asserts the PR-9 churn invariants hold for the
// whole system after a re-sharding action: converged replicas, per-
// subgroup share-index soundness, directory/membership agreement.
func checkShardInvariants(t *testing.T, s *System, when string) {
	t.Helper()
	if !s.DirectoryConverged() {
		t.Fatalf("%s: directory replicas diverged", when)
	}
	if !s.DirectoryMatchesMembership() {
		t.Fatalf("%s: directory does not match membership", when)
	}
	d := s.Directory()
	for g := 0; g < s.NumSubgroups(); g++ {
		if !d.ShareIndexesSound(g) {
			t.Fatalf("%s: share indices unsound in subgroup %d", when, g)
		}
	}
}

func TestSplitSubgroup(t *testing.T) {
	s := mustBootstrap(t, shardOpts(11))
	growSubgroup(t, s, 0, 8) // past 2n−1 = 7

	plan := s.ShardPlan()
	if plan == nil || plan.Kind != ShardSplit || plan.Subgroup != 0 {
		t.Fatalf("plan = %+v, want split of subgroup 0", plan)
	}

	act, err := s.SplitSubgroup(0, shardStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if act.Target != 2 || len(act.Moved) != 4 {
		t.Fatalf("split action %+v, want 4 movers into subgroup 2", act)
	}
	settle(s, 2*simnet.Second)

	if got := len(s.SubgroupPeers(0)); got != 4 {
		t.Fatalf("source kept %d members, want 4", got)
	}
	if got := len(s.SubgroupPeers(2)); got != 4 {
		t.Fatalf("new subgroup has %d members, want 4", got)
	}
	if l := s.SubgroupLeader(2); l == raft.None {
		t.Fatal("new subgroup has no leader")
	}
	d := s.Directory()
	for i, id := range s.SubgroupPeers(2) {
		e, ok := d.Lookup(id)
		if !ok || e.Subgroup != 2 {
			t.Fatalf("mover %d: directory entry %+v ok=%v, want subgroup 2", id, e, ok)
		}
		if e.ShareIndex != i {
			t.Fatalf("mover %d: share index %d, want dense %d", id, e.ShareIndex, i)
		}
	}
	checkShardInvariants(t, s, "after split")

	if s.ShardPlan() != nil {
		t.Fatalf("shard map still unbalanced after split: %+v", s.ShardPlan())
	}

	// Both halves must still be live raft groups: each can commit a
	// membership change (exercised by admitting one more peer into each).
	for _, g := range []int{0, 2} {
		id, err := s.AddPeer(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitAdmitted(id, shardStepLimit); err != nil {
			t.Fatalf("subgroup %d cannot admit after split: %v", g, err)
		}
	}
	settle(s, 500*simnet.Millisecond)
	checkShardInvariants(t, s, "after post-split admissions")
}

func TestMergeSubgroup(t *testing.T) {
	s := mustBootstrap(t, shardOpts(13))
	// At degree 4 the planner's merge trigger (size 1) lies below the
	// departure floor, so the merge of a two-member subgroup is called by hand.
	shrinkSubgroup(t, s, 1, 2)

	act, err := s.MergeSubgroup(1, shardStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if act.Target != 0 || len(act.Moved) != 2 {
		t.Fatalf("merge action %+v, want 2 movers into subgroup 0", act)
	}
	settle(s, 2*simnet.Second)

	if got := len(s.SubgroupPeers(1)); got != 0 {
		t.Fatalf("retired subgroup still lists %d members", got)
	}
	if got := len(s.SubgroupPeers(0)); got != 6 {
		t.Fatalf("target has %d members, want 6", got)
	}
	d := s.Directory()
	for _, id := range act.Moved {
		e, ok := d.Lookup(id)
		if !ok || e.Subgroup != 0 {
			t.Fatalf("mover %d: directory entry %+v ok=%v, want subgroup 0", id, e, ok)
		}
	}
	if m := s.subgroupMembers(0); len(m) != 6 {
		t.Fatalf("target raft membership %v, want 6 members", m)
	}
	checkShardInvariants(t, s, "after merge")

	// A retired slot must not read as degraded, and the merged group
	// must keep absorbing churn.
	if degraded := s.DegradedSubgroups(); len(degraded) != 0 {
		t.Fatalf("degraded subgroups after merge: %v", degraded)
	}
	id, err := s.AddPeer(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitAdmitted(id, shardStepLimit); err != nil {
		t.Fatalf("merged subgroup cannot admit: %v", err)
	}
	settle(s, 500*simnet.Millisecond)
	checkShardInvariants(t, s, "after post-merge admission")
}

// TestRebalanceMergesAfterDepartures is the merge the planner chooses
// itself: at degree 5 graceful departures reach the trigger (2·2 < 5).
func TestRebalanceMergesAfterDepartures(t *testing.T) {
	opts := shardOpts(23)
	opts.SubgroupSize = 5
	s := mustBootstrap(t, opts)
	shrinkSubgroup(t, s, 1, 3)
	if plan := s.ShardPlan(); plan != nil {
		t.Fatalf("three of five members planned %+v", plan)
	}
	shrinkSubgroup(t, s, 1, 2)
	if plan := s.ShardPlan(); plan == nil || plan.Kind != ShardMerge || plan.Subgroup != 1 || plan.Target != 0 {
		t.Fatalf("plan = %+v, want merge of subgroup 1 into 0", plan)
	}

	actions, err := s.Rebalance(shardStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != ShardMerge || len(actions[0].Moved) != 2 {
		t.Fatalf("rebalance executed %+v, want one merge of two movers", actions)
	}
	settle(s, 2*simnet.Second)
	if got := len(s.SubgroupPeers(0)); got != 7 {
		t.Fatalf("target has %d members, want 7", got)
	}
	if plan := s.ShardPlan(); plan != nil {
		t.Fatalf("still unbalanced after the merge: %+v", plan)
	}
	checkShardInvariants(t, s, "after planned merge")
	if geo, degraded := s.RoundGeometry(), s.DegradedSubgroups(); len(degraded) != 0 || len(geo.Sizes) != 1 || geo.Subgroups[0] != 0 {
		t.Fatalf("geometry after merge %+v, degraded %v, want subgroup 0 alone and nothing degraded", geo, degraded)
	}

	id, err := s.AddPeer(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitAdmitted(id, shardStepLimit); err != nil {
		t.Fatalf("merged subgroup cannot admit: %v", err)
	}
	settle(s, 500*simnet.Millisecond)
	checkShardInvariants(t, s, "after post-merge admission")
}

func TestRebalanceSplitsUntilBounded(t *testing.T) {
	s := mustBootstrap(t, shardOpts(17))
	growSubgroup(t, s, 0, 9) // one split leaves 5 and 4 — both within 2n−1

	actions, err := s.Rebalance(shardStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("rebalance did nothing with an oversized subgroup")
	}
	for _, a := range actions {
		if a.Kind != ShardSplit {
			t.Fatalf("unexpected action %+v", a)
		}
	}
	if plan := s.ShardPlan(); plan != nil {
		t.Fatalf("still unbalanced after rebalance: %+v", plan)
	}
	settle(s, 2*simnet.Second)
	checkShardInvariants(t, s, "after rebalance")
}

func TestShardPlanQuietWhenBalanced(t *testing.T) {
	s := mustBootstrap(t, shardOpts(19))
	if plan := s.ShardPlan(); plan != nil {
		t.Fatalf("balanced system planned %+v", plan)
	}
	if actions, err := s.Rebalance(shardStepLimit); err != nil || len(actions) != 0 {
		t.Fatalf("rebalance on balanced system: actions=%v err=%v", actions, err)
	}
}
