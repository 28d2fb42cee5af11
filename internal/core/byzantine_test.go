package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fl"
	"repro/internal/sac"
)

// byzTestModels draws coordinates with |w[d]| ∈ [1, w] so poison-scale
// forgeries are provably out of range under ShareBound = w.
func byzTestModels(r *rand.Rand, n, dim int, w float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		m := make([]float64, dim)
		for j := range m {
			sign := 1.0
			if r.Intn(2) == 1 {
				sign = -1
			}
			m[j] = sign * (1 + r.Float64()*(w-1))
		}
		out[i] = m
	}
	return out
}

func plainMean(models [][]float64) []float64 {
	avg := make([]float64, len(models[0]))
	for _, m := range models {
		for d, v := range m {
			avg[d] += v
		}
	}
	for d := range avg {
		avg[d] /= float64(len(models))
	}
	return avg
}

func linfDist(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestRobustRoundSurvivesWherePlainMeanBreaks is the sharpness contrast
// at the system level: the same adversary plan against the same models
// keeps the guarded global within tolerance of the clean baseline while
// the unguarded run is driven arbitrarily far away.
func TestRobustRoundSurvivesWherePlainMeanBreaks(t *testing.T) {
	const (
		m, n, k, dim = 2, 5, 3, 4
		w            = 10.0
		bound        = 3 * w
	)
	sizes := []int{n, n}
	models := byzTestModels(rand.New(rand.NewSource(21)), m*n, dim, w)
	clean := plainMean(models)
	// Subgroup 0 inflates subtotal copies, subgroup 1 forges scaled
	// shares; leaders stay honest.
	plans := map[int]sac.AdversaryPlan{
		0: {2: sac.ByzInflateSubtotal},
		1: {4: sac.ByzPoisonScale},
	}
	spec := RoundSpec{Leaders: []int{0, 0}, Adversary: plans}

	robustSys, err := NewSystem(Config{
		Sizes: sizes, K: []int{k},
		Guard:      &sac.Guard{ShareBound: w},
		Aggregator: fl.CoordinateMedian{},
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	robust, err := robustSys.AggregateRound(models, spec)
	if err != nil {
		t.Fatalf("robust round: %v", err)
	}
	if d := linfDist(robust.Global, clean); d > bound {
		t.Fatalf("robust global deviates %g > %g from clean baseline", d, bound)
	}
	if got := robust.ExcludedPeers[1]; len(got) != 1 || got[0] != 4 {
		t.Fatalf("poison-scale peer not excluded: ExcludedPeers = %v", robust.ExcludedPeers)
	}
	if len(robust.ByzantineExcluded) != 0 {
		t.Fatalf("honest leaders, yet subgroups accused: %v", robust.ByzantineExcluded)
	}

	plainSys, err := NewSystem(Config{Sizes: sizes, K: []int{k}}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainSys.AggregateRound(models, spec)
	if err != nil {
		t.Fatalf("plain round: %v", err)
	}
	if d := linfDist(plain.Global, clean); d <= bound {
		t.Fatalf("plain mean absorbed the attack (deviation %g ≤ %g) — the robust checks would be vacuous", d, bound)
	}
}

// TestEquivocatingLeaderDropsItsSubgroup checks the system-level
// consequence of a convicted leader: the subgroup's (tainted) result is
// withheld from the upper layer and reported in ByzantineExcluded.
func TestEquivocatingLeaderDropsItsSubgroup(t *testing.T) {
	const n, k, dim, w = 5, 3, 3, 10.0
	sizes := []int{n, n, n}
	models := byzTestModels(rand.New(rand.NewSource(22)), 3*n, dim, w)
	plans := map[int]sac.AdversaryPlan{1: {2: sac.ByzEquivocate}}
	spec := RoundSpec{Leaders: []int{0, 2, 0}, Adversary: plans}

	sys, err := NewSystem(Config{
		Sizes: sizes, K: []int{k},
		Guard:      &sac.Guard{ShareBound: w},
		Aggregator: fl.CoordinateMedian{},
	}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AggregateRound(models, spec)
	if err != nil {
		t.Fatalf("round with equivocating leader: %v", err)
	}
	if len(res.ByzantineExcluded) != 1 || res.ByzantineExcluded[0] != 1 {
		t.Fatalf("ByzantineExcluded = %v, want [1]", res.ByzantineExcluded)
	}
	// The surviving subgroups are honest, so the global equals the mean
	// over their peers' models alone.
	honest := plainMean(append(append([][]float64{}, models[:n]...), models[2*n:]...))
	if d := linfDist(res.Global, honest); d > 1e-9 {
		t.Fatalf("global off the surviving subgroups' mean by %g", d)
	}
}

// TestRobustRoundDeterministic pins seed-replayability through the full
// core stack with adversaries armed.
func TestRobustRoundDeterministic(t *testing.T) {
	run := func() *RoundResult {
		models := byzTestModels(rand.New(rand.NewSource(23)), 8, 3, 10)
		sys, err := NewSystem(Config{
			Sizes: []int{4, 4}, K: []int{2},
			Guard:      &sac.Guard{ShareBound: 10},
			Aggregator: fl.CoordinateMedian{},
		}, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.AggregateRound(models, RoundSpec{
			Leaders:   []int{1, 1},
			Adversary: map[int]sac.AdversaryPlan{0: {0: sac.ByzCorruptShares}, 1: {3: sac.ByzZeroSubtotal}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if linfDist(a.Global, b.Global) != 0 {
		t.Fatalf("same seed diverged: %v vs %v", a.Global, b.Global)
	}
}
