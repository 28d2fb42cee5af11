package cluster

import (
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// handoffSize is what ReplacePeer must report for p right now: the
// exact sizes of the model's checkpoint frame and of the raft-state
// frame of each raft identity p runs (subgroup, and FedAvg layer for a
// member), as the codec encodes them.
func handoffSize(p *Peer) int {
	n := len(wire.AppendCheckpointFrame(nil, wire.Checkpoint{Names: []string{"model"}, Sizes: []int{len(p.Model())}, Weights: p.Model()})) +
		len(wire.AppendRaftStateFrame(nil, p.subHost.Node.Persist()))
	if p.fedHost != nil {
		n += len(wire.AppendRaftStateFrame(nil, p.fedHost.Node.Persist()))
	}
	return n
}

// trainStep is a deterministic stand-in for one local training round:
// the model moves by a round-dependent increment, so a model that
// missed (or repeated) any round is numerically distinguishable from
// one that saw every round exactly once.
func trainStep(w []float64, round int) []float64 {
	out := make([]float64, len(w))
	for i := range w {
		out[i] = w[i] + float64(round+1)*0.25 + float64(i)*0.01
	}
	return out
}

// runRounds advances every live admitted peer by one training round per
// iteration, spacing rounds by interval of virtual time.
func runRounds(s *System, from, to int, interval simnet.Duration) {
	for r := from; r < to; r++ {
		for _, id := range s.PeerIDs() {
			p := s.Peer(id)
			if p.Down() {
				continue
			}
			p.SetModel(trainStep(p.Model(), r))
		}
		settle(s, interval)
	}
}

// TestReplacePeerZeroLostRounds is the graceful-handoff acceptance
// test: a peer replaced mid-training hands its persisted raft state and
// model to a successor, and the successor's model after the full
// schedule is byte-equal to an equal-seed run with no replacement —
// zero lost (and zero repeated) training rounds, no retraining.
func TestReplacePeerZeroLostRounds(t *testing.T) {
	const rounds = 10
	run := func(replaceAt int, target uint64) (*System, []float64) {
		s := mustBootstrap(t, churnOpts(7))
		for _, id := range s.PeerIDs() {
			s.Peer(id).SetModel([]float64{0, 0, 0, 0})
		}
		runRounds(s, 0, replaceAt, 50*simnet.Millisecond)
		if replaceAt < rounds {
			want := handoffSize(s.Peer(target))
			n, err := s.ReplacePeer(target)
			if err != nil {
				t.Fatal(err)
			}
			if n != want {
				t.Fatalf("handoff transferred %d bytes, want checkpoint frame + raft-state frame = %d", n, want)
			}
			// Let the successor resume (one tick + one latency).
			settle(s, 50*simnet.Millisecond)
			if s.Peer(target).Down() {
				t.Fatal("successor did not resume")
			}
			runRounds(s, replaceAt, rounds, 50*simnet.Millisecond)
		}
		return s, s.Peer(target).Model()
	}

	var target uint64 = 2 // a follower of subgroup 0 under churnOpts seeds
	base := mustBootstrap(t, churnOpts(7))
	if base.SubgroupLeader(0) == target {
		target = 3
	}

	sBase, want := func() (*System, []float64) {
		s := mustBootstrap(t, churnOpts(7))
		for _, id := range s.PeerIDs() {
			s.Peer(id).SetModel([]float64{0, 0, 0, 0})
		}
		runRounds(s, 0, rounds, 50*simnet.Millisecond)
		return s, s.Peer(target).Model()
	}()
	_ = sBase
	sRep, got := run(5, target)

	if len(got) != len(want) {
		t.Fatalf("model length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("model[%d] = %v after handoff, want %v (baseline): a training round was lost or repeated", i, got[i], want[i])
		}
	}
	// The successor's raft state survived too: it is still a voting
	// member with its log intact, so crashing the current leader must
	// still yield a new leader (possibly the successor itself).
	st := sRep.Peer(target).SubStatus()
	if st.CommitIndex == 0 && st.Term == 0 {
		t.Fatal("successor resumed with empty raft state")
	}
	l := sRep.SubgroupLeader(0)
	if err := sRep.CrashPeer(l); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sRep.WaitSubgroupLeader(0, l, 20*simnet.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReplaceFedMemberKeepsLayerState replaces a subgroup leader — a
// FedAvg-layer member — and verifies the successor resumes BOTH raft
// identities from the transferred state: it remains a FedAvg member
// (joined, directory replica intact) without re-running the join
// protocol.
func TestReplaceFedMemberKeepsLayerState(t *testing.T) {
	s := mustBootstrap(t, churnOpts(8))
	target := s.SubgroupLeader(0)
	s.Peer(target).SetModel([]float64{4, 5, 6})
	preSum := s.Peer(target).DirectoryReplica().Checksum()
	want := handoffSize(s.Peer(target))
	if n, err := s.ReplacePeer(target); err != nil {
		t.Fatal(err)
	} else if n != want {
		t.Fatalf("handoff transferred %d bytes, want checkpoint frame + two raft-state frames = %d", n, want)
	}
	settle(s, 100*simnet.Millisecond)
	p := s.Peer(target)
	if p.Down() {
		t.Fatal("successor did not resume")
	}
	if !p.Joined() {
		t.Fatal("successor lost FedAvg membership")
	}
	if st, ok := p.FedStatus(); !ok || st.Term == 0 && st.CommitIndex == 0 {
		t.Fatalf("fed raft state not transferred (ok=%v, st=%+v)", ok, st)
	}
	if p.DirectoryReplica().Checksum() != preSum {
		t.Fatal("directory replica changed across handoff")
	}
	if got := p.Model(); len(got) != 3 || got[0] != 4 {
		t.Fatalf("model %v not transferred", got)
	}
	// The layer keeps functioning: a directory update proposed after the
	// handoff still commits and reaches the successor's replica.
	id, err := s.AddPeer(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitAdmitted(id, 10*simnet.Second); err != nil {
		t.Fatal(err)
	}
	settle(s, 2*simnet.Second)
	if _, ok := p.DirectoryReplica().Lookup(id); !ok {
		t.Fatal("successor's replica missed a post-handoff directory commit")
	}
	if !s.DirectoryConverged() {
		t.Fatal("replicas diverged after handoff + join")
	}
	if s.FedAvgLeader() == raft.None {
		t.Fatal("FedAvg layer lost its leader")
	}
}
