package core

import (
	"math/rand"
	"testing"
)

// Reconfigure is the round-boundary half of the continuous-churn story:
// after a membership change the next round must aggregate exactly under
// the new geometry, and a rejected geometry must leave the system on
// the old one.

func TestReconfigureBetweenRounds(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sys, err := NewSystem(Config{Sizes: []int{3, 3}}, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 6, 8)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("pre-churn round off by %v", d)
	}

	// A join grows subgroup 0, a leave shrinks subgroup 1, and a whole
	// new subgroup appears — all between rounds.
	if err := sys.Reconfigure([]int{4, 2, 3}, []int{3, 2, 2}); err != nil {
		t.Fatal(err)
	}
	cfg := sys.cfg
	if got := cfg.NumPeers(); got != 9 {
		t.Fatalf("NumPeers = %d after reconfigure, want 9", got)
	}
	models = randModels(r, 9, 8)
	res, err = sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("post-churn round off by %v", d)
	}

	// Shrinking to a single, larger subgroup works too.
	if err := sys.Reconfigure([]int{5}, nil); err != nil {
		t.Fatal(err)
	}
	models = randModels(r, 5, 8)
	res, err = sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("shrunk round off by %v", d)
	}
}

func TestReconfigureRejectsBadGeometry(t *testing.T) {
	sys, err := NewSystem(Config{Sizes: []int{3, 3}, K: []int{2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2][]int{
		{{}, nil},           // no subgroups
		{{3, 0}, nil},       // zero-size subgroup
		{{3, 3, 3}, {2, 2}}, // threshold count mismatch
	} {
		if err := sys.Reconfigure(bad[0], bad[1]); err == nil {
			t.Fatalf("want error for sizes=%v k=%v", bad[0], bad[1])
		}
	}
	// The failed attempts left the old configuration in place.
	cfg := sys.cfg
	if len(cfg.Sizes) != 2 || cfg.Sizes[0] != 3 || len(cfg.K) != 1 || cfg.K[0] != 2 {
		t.Fatalf("config mutated by rejected reconfigure: %+v", cfg)
	}
	models := randModels(rand.New(rand.NewSource(33)), 6, 4)
	if _, err := sys.AggregateRound(models, RoundSpec{}); err != nil {
		t.Fatal(err)
	}
}
