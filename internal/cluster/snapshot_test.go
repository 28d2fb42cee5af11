package cluster

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// The periodic FedAvg-configuration commits would grow subgroup logs
// without bound; compaction keeps them bounded while preserving the
// configuration for future leaders.
func TestSubgroupLogsStayBounded(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 31))
	// ~1,200 config commits per subgroup leader, ~19 thresholds' worth.
	s.Sim.RunFor(60 * simnet.Second)

	for id := 1; id <= len(s.peers); id++ {
		p := s.Peer(uint64(id))
		logLen := len(p.subHost.Node.Log())
		if logLen > 3*snapshotThreshold {
			t.Fatalf("peer %d subgroup log has %d entries despite threshold %d",
				id, logLen, snapshotThreshold)
		}
	}
	// Compaction must not have broken the configuration tracking.
	want := len(s.FedAvgMembers())
	for id := 1; id <= len(s.peers); id++ {
		p := s.Peer(uint64(id))
		if len(p.fedConfig) != want {
			t.Fatalf("peer %d lost the FedAvg config after compaction", id)
		}
	}
}

// Leader crash recovery still works when the subgroup log has been
// compacted: the new leader's configuration knowledge survives in the
// snapshot.
func TestRecoveryAfterCompaction(t *testing.T) {
	s := mustBootstrap(t, paperOpts(50, 32))
	// ~400 config commits per subgroup leader: six compactions.
	s.Sim.RunFor(20 * simnet.Second)

	fed := s.FedAvgLeader()
	var victim uint64
	var victimSub int
	for g := 0; g < 5; g++ {
		if l := s.SubgroupLeader(g); l != fed {
			victim, victimSub = l, g
			break
		}
	}
	if err := s.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	newLeader, _, err := s.WaitSubgroupLeader(victimSub, victim, 20*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitJoined(newLeader, 30*simnet.Second); err != nil {
		t.Fatal(err)
	}
}

// A configuration commit whose bytes repeat the last one decoded is not
// decoded again, so a snapshot that sets the configuration from its own
// bytes must forget them: after A, snapshot(B), A the peer knows A.
func TestSnapshotForgetsTheLastDecodedCommit(t *testing.T) {
	s, err := New(paperOpts(50, 33))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Peer(1)
	commit := func(members []uint64) {
		b, err := json.Marshal(fedConfigEntry{Members: members})
		if err != nil {
			t.Fatal(err)
		}
		p.subHost.OnCommit(raft.Entry{Type: raft.EntryNormal, Data: append([]byte(fedConfigPrefix), b...)})
	}
	a, b := []uint64{1, 6, 11}, []uint64{2, 7, 12, 17}
	commit(a)
	snap, err := json.Marshal(fedConfigEntry{Members: b})
	if err != nil {
		t.Fatal(err)
	}
	p.subHost.OnSnapshot(&raft.Snapshot{Data: snap})
	if !slices.Equal(p.fedConfig, b) {
		t.Fatalf("after snapshot(B) the peer knows %v, want %v", p.fedConfig, b)
	}
	commit(a)
	if !slices.Equal(p.fedConfig, a) {
		t.Fatalf("after A, snapshot(B), A the peer knows %v, want %v", p.fedConfig, a)
	}
}
