package cluster

import (
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// paperOpts mirrors the paper's Sec. VI-B setup: five subgroups of five
// peers (N=25, n=5), 15 ms link delay, timeouts U(T, 2T).
func paperOpts(tMs int, seed int64) Options {
	return Options{
		NumSubgroups:    5,
		SubgroupSize:    5,
		ElectionTickMin: tMs,
		ElectionTickMax: 2 * tMs,
		Latency:         15 * simnet.Millisecond,
		Seed:            seed,
	}
}

func mustBootstrap(t *testing.T, opts Options) *System {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(20 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("want error for empty options")
	}
	if _, err := New(Options{NumSubgroups: 2, SubgroupSize: 0}); err == nil {
		t.Fatal("want error for zero-size subgroup")
	}
	if _, err := New(Options{NumSubgroups: 2, SubgroupSize: 3, Latency: -1}); err == nil {
		t.Fatal("want error for negative latency")
	}
}

func TestBootstrapFormsBothLayers(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 1))
	if len(s.peers) != 25 {
		t.Fatalf("peers = %d", len(s.peers))
	}
	for g := 0; g < 5; g++ {
		l := s.SubgroupLeader(g)
		if l == raft.None {
			t.Fatalf("subgroup %d has no leader", g)
		}
		if !s.Peer(l).IsSubgroupLeader() {
			t.Fatalf("peer %d not reporting leadership", l)
		}
	}
	fl := s.FedAvgLeader()
	if fl == raft.None {
		t.Fatal("no FedAvg leader")
	}
	// The FedAvg leader must be one of the subgroup leaders.
	found := false
	for g := 0; g < 5; g++ {
		if s.SubgroupLeader(g) == fl {
			found = true
		}
	}
	if !found {
		t.Fatalf("FedAvg leader %d is not a subgroup leader", fl)
	}
	if got := len(s.FedAvgMembers()); got != 5 {
		t.Fatalf("FedAvg members = %d, want 5", got)
	}
}

func TestConfigCommittedToSubgroups(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 2))
	// Let a few config-commit intervals pass.
	s.Sim.RunFor(500 * simnet.Millisecond)
	for id, want := 1, len(s.FedAvgMembers()); id <= len(s.peers); id++ {
		p := s.Peer(uint64(id))
		if p.Down() {
			continue
		}
		if len(p.fedConfig) != want {
			t.Fatalf("peer %d knows %d FedAvg members, want %d", id, len(p.fedConfig), want)
		}
	}
}

func TestSubgroupLeaderCrashRecovery(t *testing.T) {
	// Fig. 10/11 scenario: crash a subgroup leader that is NOT the
	// FedAvg leader; its subgroup elects a new leader which joins the
	// FedAvg layer.
	s := mustBootstrap(t, paperOpts(50, 3))
	s.Sim.RunFor(500 * simnet.Millisecond) // let config commits propagate
	fed := s.FedAvgLeader()
	var victim uint64
	var victimSub int
	for g := 0; g < 5; g++ {
		if l := s.SubgroupLeader(g); l != fed {
			victim, victimSub = l, g
			break
		}
	}
	crashAt := s.Sim.Now()
	if err := s.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	newLeader, electAt, err := s.WaitSubgroupLeader(victimSub, victim, 10*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	elect := simnet.Duration(electAt - crashAt)
	// With U(50,100)ms timeouts the paper measures ~214 ms average;
	// individual trials land well within [50ms, 1.5s].
	if elect < 50*simnet.Millisecond || elect > 3*simnet.Second {
		t.Fatalf("election took %v ms", elect.Ms())
	}
	joinAt, err := s.WaitJoined(newLeader, 10*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if joinAt < electAt {
		t.Fatal("join cannot precede election")
	}
	// New leader must now be a FedAvg member from the leader's view.
	s.Sim.RunFor(200 * simnet.Millisecond)
	members := s.FedAvgMembers()
	found := false
	for _, m := range members {
		if m == newLeader {
			found = true
		}
	}
	if !found {
		t.Fatalf("new leader %d not in FedAvg members %v", newLeader, members)
	}
	// FedAvg leadership was never lost.
	if s.FedAvgLeader() != fed {
		t.Fatalf("FedAvg leader changed from %d to %d", fed, s.FedAvgLeader())
	}
}

func TestFedAvgLeaderCrashRecovery(t *testing.T) {
	// Fig. 12 scenario: the FedAvg leader (also a subgroup leader)
	// crashes; both layers recover and the new subgroup leader joins.
	s := mustBootstrap(t, paperOpts(50, 4))
	s.Sim.RunFor(500 * simnet.Millisecond)
	victim := s.FedAvgLeader()
	victimSub := s.Peer(victim).Subgroup
	crashAt := s.Sim.Now()
	if err := s.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	// New FedAvg leader among the remaining subgroup leaders.
	newFed, fedAt, err := s.WaitFedAvgLeader(victim, 10*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if newFed == victim {
		t.Fatal("dead peer elected")
	}
	if fedAt < crashAt {
		t.Fatal("time went backwards")
	}
	// New subgroup leader in the victim's subgroup joins the layer.
	newSub, _, err := s.WaitSubgroupLeader(victimSub, victim, 10*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitJoined(newSub, 20*simnet.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFollowerCrashIsHarmless(t *testing.T) {
	// Sec. V-A2: the subgroup tolerates follower crashes as long as a
	// majority survives, and neither layer elects anyone.
	s := mustBootstrap(t, paperOpts(50, 5))
	lead, fed := s.SubgroupLeader(0), s.FedAvgLeader()
	killed := 0
	for _, id := range s.SubgroupPeers(0) {
		if id != lead && killed < 2 { // 2 of 5 may die
			if err := s.CrashPeer(id); err != nil {
				t.Fatal(err)
			}
			killed++
		}
	}
	s.Sim.RunFor(2 * simnet.Second)
	if s.SubgroupLeader(0) != lead {
		t.Fatalf("leadership changed after follower crashes")
	}
	if got := s.FedAvgLeader(); got != fed {
		t.Fatalf("FedAvg leader changed after follower crashes: %d, was %d", got, fed)
	}
}

func TestEventsTimeline(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 6))
	evs := s.Events()
	subLeaders, fedLeaders := 0, 0
	for _, e := range evs {
		switch e.Kind {
		case EvSubgroupLeader:
			subLeaders++
		case EvFedAvgLeader:
			fedLeaders++
		}
	}
	if subLeaders < 5 {
		t.Fatalf("subgroup leader events = %d, want ≥ 5", subLeaders)
	}
	if fedLeaders < 1 {
		t.Fatalf("fedavg leader events = %d, want ≥ 1", fedLeaders)
	}
	if _, ok := s.FirstEventAfter(0, EvSubgroupLeader, -1); !ok {
		t.Fatal("FirstEventAfter found nothing")
	}
	if _, ok := s.FirstEventAfter(s.Sim.Now()+1, EvSubgroupLeader, -1); ok {
		t.Fatal("FirstEventAfter in the future must find nothing")
	}
}

func TestUnevenSizes(t *testing.T) {
	// The paper's N=10, n=3 case: subgroups of 3, 3, 4, the fourth peer
	// of the last one admitted after bootstrap.
	s := mustBootstrap(t, Options{
		NumSubgroups:    3,
		SubgroupSize:    3,
		ElectionTickMin: 50,
		ElectionTickMax: 100,
		Latency:         15 * simnet.Millisecond,
		Seed:            7,
	})
	id, err := s.AddPeer(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitAdmitted(id, 20*simnet.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.peers) != 10 {
		t.Fatalf("peers = %d", len(s.peers))
	}
	if got := len(s.SubgroupPeers(2)); got != 4 {
		t.Fatalf("subgroup 2 size = %d", got)
	}
	if s.FedAvgLeader() == raft.None {
		t.Fatal("no FedAvg leader")
	}
}

func TestCrashUnknownPeer(t *testing.T) {
	s := mustBootstrap(t, Options{
		NumSubgroups: 1, SubgroupSize: 3,
		ElectionTickMin: 50, ElectionTickMax: 100,
		Latency: simnet.Millisecond, Seed: 8,
	})
	if err := s.CrashPeer(999); err == nil {
		t.Fatal("want error for unknown peer")
	}
}

func TestRepeatedLeaderCrashes(t *testing.T) {
	// Crash the subgroup-0 leader twice in a row; each time a new
	// leader must emerge and join the FedAvg layer (membership grows,
	// per Sec. VII-D). A third crash leaves 2 of 5 peers — below quorum.
	s := mustBootstrap(t, paperOpts(50, 9))
	s.Sim.RunFor(500 * simnet.Millisecond)
	for round := 0; round < 2; round++ {
		victim := s.SubgroupLeader(0)
		if victim == raft.None {
			t.Fatalf("round %d: no leader", round)
		}
		if victim == s.FedAvgLeader() {
			// Keep this test to the Fig. 10/11 case; skip rounds where
			// the victim would be the FedAvg leader.
			s.Sim.RunFor(200 * simnet.Millisecond)
		}
		if err := s.CrashPeer(victim); err != nil {
			t.Fatal(err)
		}
		nl, _, err := s.WaitSubgroupLeader(0, victim, 20*simnet.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := s.WaitJoined(nl, 30*simnet.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The third crash leaves 2 of 5 peers in subgroup 0: quorum (3) is
	// gone; no further leader can be elected there.
	victim := s.SubgroupLeader(0)
	if err := s.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.WaitSubgroupLeader(0, victim, 3*simnet.Second); err == nil {
		t.Fatal("subgroup without quorum must not elect a leader")
	}
}
