package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

// The paper observes (Sec. VI-B2) that with 12–24 ms timeouts "even when
// a peer became a leader, its authority was not stable and elections
// were held repeatedly": the 15 ms link delay makes a vote round trip
// (~30 ms) longer than the election timeout, so candidacies keep timing
// out and terms churn.
func TestShortTimeoutsCauseInstability(t *testing.T) {
	run := func(tMs int) (maxTerm uint64, leaderSeen bool) {
		sim := simnet.New()
		g := simnet.NewGroup(sim, "unstable", 15*simnet.Millisecond, rand.New(rand.NewSource(1)))
		ids := []uint64{1, 2, 3, 4, 5}
		for _, id := range ids {
			n, err := raft.NewNode(raft.Config{
				ID: id, Peers: ids,
				ElectionTickMin: tMs,
				ElectionTickMax: 2 * tMs,
				HeartbeatTick:   maxInt(1, tMs/3),
				Rng:             rand.New(rand.NewSource(int64(tMs)*100 + int64(id))),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Add(n); err != nil {
				t.Fatal(err)
			}
		}
		sim.RunFor(3 * simnet.Second)
		for _, id := range g.IDs() {
			if term := g.Host(id).Node.Term(); term > maxTerm {
				maxTerm = term
			}
		}
		return maxTerm, g.Leader() != raft.None
	}

	// 12–24 ms: vote RTT (≈30 ms) exceeds every timeout draw, so
	// elections repeat and terms churn.
	shortTerm, _ := run(12)
	// 50–100 ms: the paper's smallest healthy setting.
	healthyTerm, healthyLeader := run(50)
	if !healthyLeader {
		t.Fatal("healthy timeouts must elect a stable leader")
	}
	if healthyTerm > 10 {
		t.Fatalf("healthy setting churned %d terms in 3 s", healthyTerm)
	}
	if shortTerm < 5*healthyTerm {
		t.Fatalf("12–24 ms timeouts should churn terms: %d vs healthy %d", shortTerm, healthyTerm)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
