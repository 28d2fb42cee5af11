package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/raft"
)

func TestHostRestartRejoins(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, 7)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no leader")
	}
	sim.RunFor(300 * Millisecond)
	lead := g.Host(g.Leader())
	if err := lead.Node.Propose([]byte("pre-crash")); err != nil {
		t.Fatal(err)
	}
	lead.Pump()
	sim.RunFor(200 * Millisecond)

	// Crash a follower, keep running, then restart it.
	var victim *Host
	for id, h := range g.hosts {
		if id != g.Leader() {
			victim = h
			break
		}
	}
	victimID := victim.Node.ID()
	victim.Crash()
	sim.RunFor(500 * Millisecond)
	if err := lead.Node.Propose([]byte("while-down")); err != nil {
		t.Fatal(err)
	}
	lead.Pump()
	sim.RunFor(500 * Millisecond)

	err := victim.Restart(raft.Config{
		ID: victimID, ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15,
		Rng: rand.New(rand.NewSource(77)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(2 * Second)

	// The restarted host caught up with entries committed while down.
	found := false
	for _, e := range victim.Node.Log() {
		if string(e.Data) == "while-down" {
			found = true
		}
	}
	if !found {
		t.Fatal("restarted host missing entries committed during downtime")
	}
	if victim.Down() {
		t.Fatal("host still marked down")
	}
}

func TestRestartValidation(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 3, 50, 100, Millisecond, 8)
	h := g.Host(1)
	cfg := raft.Config{ID: 1, ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15}
	if err := h.Restart(cfg); err == nil {
		t.Fatal("want error restarting a live host")
	}
	h.Crash()
	bad := cfg
	bad.ID = 2
	if err := h.Restart(bad); err == nil {
		t.Fatal("want error for mismatched ID")
	}
	// A host that never pumped restarts from its bootstrap configuration:
	// the blank node it was, membership included.
	sim2 := New()
	g2 := NewGroup(sim2, "fresh", Uniform(0), nil)
	n, err := raft.NewNode(raft.Config{ID: 9, Peers: []uint64{7, 8, 9}, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := g2.Add(n)
	if err != nil {
		t.Fatal(err)
	}
	h2.Crash()
	if err := h2.Restart(raft.Config{ID: 9, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2}); err != nil {
		t.Fatalf("host that crashed before its first Pump could not restart: %v", err)
	}
	if got := h2.Node.Members(); len(got) != 3 || h2.Node.Term() != 0 || h2.Down() {
		t.Fatalf("restarted blank host: members %v term %d down %v", got, h2.Node.Term(), h2.Down())
	}
}
