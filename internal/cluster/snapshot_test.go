package cluster

import (
	"testing"

	"repro/internal/simnet"
)

// The periodic FedAvg-configuration commits would grow subgroup logs
// without bound; compaction keeps them bounded while preserving the
// configuration for future leaders.
func TestSubgroupLogsStayBounded(t *testing.T) {
	opts := paperOpts(50, 31)
	opts.SnapshotThreshold = 16
	opts.ConfigCommitInterval = 20 * simnet.Millisecond // commit fast
	s := mustBootstrap(t, opts)
	// ~300 config commits per subgroup leader.
	s.Sim.RunFor(6 * simnet.Second)

	for id := 1; id <= len(s.peers); id++ {
		p := s.Peer(uint64(id))
		logLen := len(p.subHost.Node.Log())
		if logLen > 3*opts.SnapshotThreshold {
			t.Fatalf("peer %d subgroup log has %d entries despite threshold %d",
				id, logLen, opts.SnapshotThreshold)
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
	opts := paperOpts(50, 32)
	opts.SnapshotThreshold = 8
	opts.ConfigCommitInterval = 20 * simnet.Millisecond
	s := mustBootstrap(t, opts)
	s.Sim.RunFor(3 * simnet.Second) // plenty of commits + compactions

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
