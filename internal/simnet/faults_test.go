package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/raft"
)

func lossyGroup(t *testing.T, sim *Sim, n int, loss float64, seed int64) *Group {
	t.Helper()
	g := NewGroup(sim, "lossy", Uniform(15*Millisecond), rand.New(rand.NewSource(seed)))
	g.LossRate = loss
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	for _, id := range ids {
		node, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids,
			ElectionTickMin: 100, ElectionTickMax: 200, HeartbeatTick: 30,
			Rng: rand.New(rand.NewSource(seed*100 + int64(id))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRaftElectsUnder20PercentLoss(t *testing.T) {
	sim := New()
	g := lossyGroup(t, sim, 5, 0.2, 1)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(30*Second)) {
		t.Fatal("no leader under 20% message loss within 30 virtual seconds")
	}
}

func TestRaftCommitsUnderLoss(t *testing.T) {
	sim := New()
	g := lossyGroup(t, sim, 5, 0.15, 2)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(30*Second)) {
		t.Fatal("no leader")
	}
	commits := map[uint64]bool{}
	for id, h := range g.hosts {
		id := id
		h.OnCommit = func(e raft.Entry) {
			if e.Type == raft.EntryNormal && string(e.Data) == "lossy" {
				commits[id] = true
			}
		}
	}
	// Propose through whoever currently leads; re-propose on leadership
	// changes until the entry commits everywhere (loss may kill the
	// first attempts).
	for try := 0; try < 20; try++ {
		if l := g.Leader(); l != raft.None {
			lead := g.Host(l)
			already := false
			for _, e := range lead.Node.Log() {
				if string(e.Data) == "lossy" {
					already = true
				}
			}
			if !already {
				if err := lead.Node.Propose([]byte("lossy")); err == nil {
					lead.Pump()
				}
			}
		}
		sim.RunFor(2 * Second)
		if len(commits) == len(g.hosts) {
			break
		}
	}
	if len(commits) != len(g.hosts) {
		t.Fatalf("only %d/%d hosts committed under loss", len(commits), len(g.hosts))
	}
}

func TestRecoveryStillWorksWithJitter(t *testing.T) {
	sim := New()
	g := NewGroup(sim, "jitter", Uniform(15*Millisecond), rand.New(rand.NewSource(3)))
	g.Jitter = 5 * Millisecond
	ids := []uint64{1, 2, 3, 4, 5}
	for _, id := range ids {
		node, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids,
			ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15,
			Rng: rand.New(rand.NewSource(300 + int64(id))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(10*Second)) {
		t.Fatal("no leader with jitter")
	}
	old := g.Leader()
	sim.RunFor(300 * Millisecond)
	g.Host(old).Crash()
	ok := sim.RunWhileNot(func() bool {
		l := g.Leader()
		return l != raft.None && l != old
	}, sim.Now()+Time(10*Second))
	if !ok {
		t.Fatal("no recovery with jitter")
	}
}

func TestTotalLossNeverElectsAcrossPeers(t *testing.T) {
	// With 100% loss no candidate can gather votes; only a single-node
	// cluster could self-elect, and this one has five nodes.
	sim := New()
	g := lossyGroup(t, sim, 5, 1.0, 4)
	sim.RunFor(5 * Second)
	if l := g.Leader(); l != raft.None {
		t.Fatalf("leader %d elected with zero connectivity", l)
	}
}
