package cluster

import (
	"slices"
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// churnOpts is a compact deployment for churn protocol tests: two
// subgroups of three, detector on so departures exercise the scrubbing
// path.
func churnOpts(seed int64) Options {
	return Options{
		NumSubgroups:    2,
		SubgroupSize:    3,
		ElectionTickMin: 50,
		Latency:         5 * simnet.Millisecond,
		Profile:         LAN,
		Seed:            seed,
	}
}

// settle runs the simulation for d so committed entries propagate to
// every replica.
func settle(s *System, d simnet.Duration) {
	s.Sim.RunWhileNot(func() bool { return false }, s.Sim.Now()+simnet.Time(d))
}

func TestBootstrapSeedsDirectory(t *testing.T) {
	s := mustBootstrap(t, churnOpts(1))
	d := s.Directory()
	if d == nil {
		t.Fatal("no directory after bootstrap")
	}
	if d.Len() != 6 {
		t.Fatalf("directory has %d entries, want 6", d.Len())
	}
	if !s.DirectoryMatchesMembership() {
		t.Fatal("seed directory does not match membership")
	}
	// The seed assigns share index = position in subgroup, the exact
	// assignment the SAC layer used for fixed membership.
	for g := 0; g < 2; g++ {
		for i, id := range s.SubgroupPeers(g) {
			e, ok := d.Lookup(id)
			if !ok || e.Subgroup != g || e.ShareIndex != i {
				t.Fatalf("peer %d: entry %+v ok=%v, want subgroup %d index %d", id, e, ok, g, i)
			}
		}
	}
	if !s.DirectoryConverged() {
		t.Fatal("replicas diverged with no churn at all")
	}
}

func TestAddPeerAdmission(t *testing.T) {
	s := mustBootstrap(t, churnOpts(2))
	id, err := s.AddPeer(0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Fatalf("new peer id = %d, want 7", id)
	}
	if s.Admitted(id) {
		t.Fatal("admitted before the protocol ran")
	}
	if _, err := s.WaitAdmitted(id, 10*simnet.Second); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(s.SubgroupPeers(0), id) {
		t.Fatal("admitted peer missing from subgroup membership")
	}
	if m := s.subgroupMembers(0); !slices.Contains(m, id) {
		t.Fatalf("subgroup raft members %v missing %d", m, id)
	}
	e, ok := s.Directory().Lookup(id)
	if !ok {
		t.Fatal("admitted peer missing from directory")
	}
	if e.Subgroup != 0 || e.ShareIndex != 3 {
		t.Fatalf("entry %+v, want subgroup 0, next free index 3", e)
	}
	settle(s, 2*simnet.Second)
	if !s.DirectoryConverged() {
		t.Fatal("directory replicas diverged after join")
	}
	if !s.DirectoryMatchesMembership() {
		t.Fatal("directory does not match membership after join")
	}
	if !s.ChurnIdle() {
		t.Fatal("churn not idle after admission completed")
	}
	// The new member participates in its subgroup raft: crash the
	// current leader and verify the subgroup still elects (the joiner
	// votes and can win).
	l := s.SubgroupLeader(0)
	if err := s.CrashPeer(l); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.WaitSubgroupLeader(0, l, 20*simnet.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDepartPeerGraceful(t *testing.T) {
	s := mustBootstrap(t, churnOpts(3))
	// Depart a follower of subgroup 0 (not the leader: that path is
	// covered separately). Give it a model so the handoff runs.
	var target uint64
	for _, id := range s.SubgroupPeers(0) {
		if id != s.SubgroupLeader(0) {
			target = id
			break
		}
	}
	s.Peer(target).SetModel([]float64{1, 2, 3})
	if err := s.DepartPeer(target); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitDeparted(target, 10*simnet.Second); err != nil {
		t.Fatal(err)
	}
	if s.Peer(target) != nil || slices.Contains(s.SubgroupPeers(0), target) {
		t.Fatal("departed peer still in membership")
	}
	if _, ok := s.Directory().Lookup(target); ok {
		t.Fatal("departed peer still in directory")
	}
	if m := s.subgroupMembers(0); slices.Contains(m, target) {
		t.Fatalf("subgroup raft members %v still hold %d", m, target)
	}
	// The model was handed to the lowest-id live co-member.
	var inherited []float64
	for _, id := range s.SubgroupPeers(0) {
		if w := s.Peer(id).Inherited(); w != nil {
			inherited = w
		}
	}
	if len(inherited) != 3 || inherited[0] != 1 || inherited[2] != 3 {
		t.Fatalf("inherited model %v, want [1 2 3]", inherited)
	}
	// Every remaining detector forgot the departed peer.
	for _, id := range s.PeerIDs() {
		if det := s.Peer(id).det; det != nil {
			if _, known := det.State(target); known {
				t.Fatalf("peer %d's detector still tracks departed %d", id, target)
			}
		}
	}
	settle(s, 2*simnet.Second)
	if !s.DirectoryConverged() || !s.DirectoryMatchesMembership() {
		t.Fatal("directory wrong after departure")
	}
}

func TestDepartSubgroupLeaderRecovers(t *testing.T) {
	s := mustBootstrap(t, churnOpts(4))
	old := s.SubgroupLeader(1)
	if err := s.DepartPeer(old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitDeparted(old, 30*simnet.Second); err != nil {
		t.Fatal(err)
	}
	// The subgroup re-elects among the two remaining members and the new
	// leader joins the FedAvg layer through the existing join protocol.
	nl, _, err := s.WaitSubgroupLeader(1, old, 20*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitJoined(nl, 30*simnet.Second); err != nil {
		t.Fatal(err)
	}
	// The departed leader was removed from the FedAvg-layer raft group,
	// not just from its subgroup.
	fl := s.FedAvgLeader()
	if fl == raft.None {
		t.Fatal("no FedAvg leader after leader departure")
	}
	if slices.Contains(s.FedAvgMembers(), old) {
		t.Fatalf("FedAvg members %v still hold departed %d", s.FedAvgMembers(), old)
	}
	settle(s, 2*simnet.Second)
	if !s.DirectoryConverged() || !s.DirectoryMatchesMembership() {
		t.Fatal("directory wrong after leader departure")
	}
}

func TestDepartRespectsSubgroupFloor(t *testing.T) {
	s := mustBootstrap(t, Options{
		NumSubgroups:    1,
		SubgroupSize:    2,
		ElectionTickMin: 50,
		Latency:         5 * simnet.Millisecond,
		Seed:            5,
	})
	if err := s.DepartPeer(1); err == nil {
		t.Fatal("want error departing from a 2-member subgroup")
	}
}

func TestRejoinAfterDepartureReusesFreedSlot(t *testing.T) {
	s := mustBootstrap(t, churnOpts(6))
	var target uint64
	for _, id := range s.SubgroupPeers(0) {
		if id != s.SubgroupLeader(0) {
			target = id
			break
		}
	}
	freed := -1
	if e, ok := s.Directory().Lookup(target); ok {
		freed = e.ShareIndex
	}
	if err := s.DepartPeer(target); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitDeparted(target, 10*simnet.Second); err != nil {
		t.Fatal(err)
	}
	id, err := s.AddPeer(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitAdmitted(id, 10*simnet.Second); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Directory().Lookup(id)
	if !ok || e.ShareIndex != freed {
		t.Fatalf("rejoined peer got index %d (ok=%v), want freed slot %d", e.ShareIndex, ok, freed)
	}
	if !s.Directory().ShareIndexesSound(0) {
		t.Fatal("share indexes unsound after leave/join cycle")
	}
}

// TestMembershipJudgedWithoutFedLeader: the directory invariants are a
// property of the replicas, not of whoever leads. At an instant between
// FedAvg leaders the surviving replicas are still equal and still record
// the admitted membership; only a layer with no live replica at all has
// nothing to judge.
func TestMembershipJudgedWithoutFedLeader(t *testing.T) {
	opts := churnOpts(7)
	opts.NumSubgroups = 3
	s := mustBootstrap(t, opts)
	id, err := s.AddPeer(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitAdmitted(id, 10*simnet.Second); err != nil {
		t.Fatal(err)
	}
	settle(s, 500*simnet.Millisecond)

	if err := s.CrashPeer(s.FedAvgLeader()); err != nil {
		t.Fatal(err)
	}
	if s.FedAvgLeader() != raft.None || s.Directory() != nil {
		t.Fatal("setup: the layer still has a leader")
	}
	if got := len(s.DirectoryReplicas()); got != 2 {
		t.Fatalf("live replicas = %d, want the 2 surviving members", got)
	}
	if !s.DirectoryConverged() {
		t.Fatal("surviving replicas disagree")
	}
	if !s.DirectoryMatchesMembership() {
		t.Fatal("membership not judged (or judged wrong) while the layer is between leaders")
	}

	for _, r := range s.DirectoryReplicas() {
		if err := s.CrashPeer(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.DirectoryConverged() || s.DirectoryMatchesMembership() {
		t.Fatal("a layer with no live replica must fail both checks")
	}
}

// TestRefusedChangeIsReaskedAfterOneRoundTrip: two admissions into one
// subgroup start together, so the leader refuses the second while the
// first is in flight. The refusal is answered by a re-ask one link round
// trip later, not at the next joinPollInterval: both changes are
// committed before the first poll comes round.
func TestRefusedChangeIsReaskedAfterOneRoundTrip(t *testing.T) {
	s := mustBootstrap(t, churnOpts(3))
	a, err := s.AddPeer(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddPeer(0)
	if err != nil {
		t.Fatal(err)
	}
	settle(s, joinPollInterval-simnet.Millisecond)
	if m := s.subgroupMembers(0); !slices.Contains(m, a) || !slices.Contains(m, b) {
		t.Fatalf("members %v before the first poll, want both %d and %d", m, a, b)
	}
	for _, id := range []uint64{a, b} {
		if _, err := s.WaitAdmitted(id, 10*simnet.Second); err != nil {
			t.Fatal(err)
		}
	}
}
