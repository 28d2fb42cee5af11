package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/fl"
	"repro/internal/nn"
)

// Soak: every optional feature at once — k-of-n subgroups, slow
// subgroups (p<1), weak DP noise and robust upper-layer aggregation —
// over a longer run. The system must stay numerically sane and still
// learn.
func TestSoakAllFeaturesTogether(t *testing.T) {
	cfg := TrainerConfig{
		Core: Config{
			Sizes:      []int{3, 3, 3, 3},
			K:          []int{2},
			Fraction:   0.75,
			Aggregator: fl.TrimmedMean{},
		},
		Model: func(rng *rand.Rand) (*nn.Model, error) {
			return nn.MLP(64, []int{24}, 4, rng), nil
		},
		Flat:         true,
		Data:         dataset.Tiny(4, 600, 200, 91),
		Dist:         dataset.NonIID5,
		Rounds:       30,
		EvalEvery:    5,
		LearningRate: 2e-3,
		DP:           &dp.Gaussian{Epsilon: 200, Delta: 1e-5, Clip: 2},
		Seed:         91,
	}
	s, err := RunTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.FinalAcc() < 0.5 {
		t.Fatalf("soak accuracy = %v", s.FinalAcc())
	}
	for i, acc := range s.TestAcc {
		if acc < 0 || acc > 1 {
			t.Fatalf("eval %d accuracy out of range: %v", i, acc)
		}
	}
	for i, loss := range s.TrainLoss {
		if loss != loss || loss < 0 { // NaN or negative
			t.Fatalf("eval %d loss invalid: %v", i, loss)
		}
	}
}

// Determinism: identical configs produce identical series (the basis of
// the reproducibility claims in EXPERIMENTS.md), bit for bit.
func TestTrainingDeterministic(t *testing.T) {
	run := func() *Series {
		cfg := tinyTrainerConfig(false, []int{3, 3}, dataset.NonIID0, 92)
		cfg.Rounds = 8
		s, err := RunTraining(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if len(a.TestAcc) != len(b.TestAcc) {
		t.Fatal("series lengths differ")
	}
	for i := range a.TestAcc {
		if a.TestAcc[i] != b.TestAcc[i] || a.TrainLoss[i] != b.TrainLoss[i] || a.Bytes[i] != b.Bytes[i] {
			t.Fatalf("series diverge at eval %d", i)
		}
	}
}
