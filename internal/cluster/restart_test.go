package cluster

import (
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

func TestRestartedFollowerRejoins(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 61))
	s.Sim.RunFor(500 * simnet.Millisecond)

	lead := s.SubgroupLeader(0)
	var victim uint64 = raft.None
	for _, id := range s.SubgroupPeers(0) {
		if id != lead {
			victim = id
			break
		}
	}
	if err := s.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	s.Sim.RunFor(1 * simnet.Second)
	if err := s.RestartPeer(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.RestartPeer(victim); err == nil {
		t.Fatal("want error restarting a live peer")
	}
	if err := s.RestartPeer(9999); err == nil {
		t.Fatal("want error for unknown peer")
	}
	s.Sim.RunFor(1 * simnet.Second)
	// The rejoined follower tracks the current config again and
	// leadership was never disturbed.
	if s.SubgroupLeader(0) != lead {
		t.Fatal("rejoin disturbed subgroup leadership")
	}
	p := s.Peer(victim)
	if p.Down() {
		t.Fatal("peer still down after restart")
	}
	if len(p.fedConfig) != len(s.FedAvgMembers()) {
		t.Fatalf("rejoined peer knows %d FedAvg members, want %d", len(p.fedConfig), len(s.FedAvgMembers()))
	}
}

func TestRestartedLeaderCanLeadAgain(t *testing.T) {
	// Crash a subgroup leader, let a new one take over and join the
	// FedAvg layer, then restart the old leader, crash the current one,
	// and verify the subgroup recovers regardless of who wins —
	// including the restarted peer reviving its FedAvg membership.
	s := mustBootstrap(t, paperOpts(50, 62))
	s.Sim.RunFor(500 * simnet.Millisecond)

	fed := s.FedAvgLeader()
	var victimSub int
	var oldLeader uint64
	for g := 0; g < 5; g++ {
		if l := s.SubgroupLeader(g); l != fed {
			oldLeader, victimSub = l, g
			break
		}
	}
	if err := s.CrashPeer(oldLeader); err != nil {
		t.Fatal(err)
	}
	newLeader, _, err := s.WaitSubgroupLeader(victimSub, oldLeader, 20*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitJoined(newLeader, 30*simnet.Second); err != nil {
		t.Fatal(err)
	}
	// Old leader comes back as a follower...
	if err := s.RestartPeer(oldLeader); err != nil {
		t.Fatal(err)
	}
	s.Sim.RunFor(1 * simnet.Second)
	// ...then the current leader dies.
	if err := s.CrashPeer(newLeader); err != nil {
		t.Fatal(err)
	}
	third, _, err := s.WaitSubgroupLeader(victimSub, newLeader, 30*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitJoined(third, 60*simnet.Second); err != nil {
		t.Fatal(err)
	}
	if s.Peer(third).Down() {
		t.Fatal("elected leader is down?")
	}
}

// TestFedNodeCrashedBeforeFirstPumpComesBack: a peer whose FedAvg-layer
// node is created by the accept message and crashes before its first
// Pump has written nothing but its bootstrap configuration. Both
// revival paths — the join protocol's createFedNode and ReviveFedNode —
// must bring it back as the blank node it was; a layer whose log already
// counts such members towards its quorum stays leaderless otherwise.
func TestFedNodeCrashedBeforeFirstPumpComesBack(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 63))
	s.Sim.RunFor(500 * simnet.Millisecond)

	var p *Peer
	for _, id := range s.SubgroupPeers(0) {
		if id != s.SubgroupLeader(0) {
			p = s.Peer(id)
			break
		}
	}
	members := s.FedAvgMembers()
	if err := s.createFedNode(p, members); err != nil {
		t.Fatal(err)
	}
	for _, revive := range []func() error{
		func() error { return s.createFedNode(p, members) },
		func() error { return s.ReviveFedNode(p.ID) },
	} {
		p.fedHost.Crash()
		if err := revive(); err != nil {
			t.Fatalf("fed node that never pumped could not come back: %v", err)
		}
		if st, _ := p.FedStatus(); p.fedHost.Down() || st.Term != 0 || len(st.Members) != len(members) {
			t.Fatalf("revived fed node: down=%v status %v, want a live blank node over %v", p.fedHost.Down(), st, members)
		}
	}
}
