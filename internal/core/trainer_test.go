package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func tinyTrainerConfig(baseline bool, sizes []int, dist dataset.Distribution, seed int64) TrainerConfig {
	total := 0
	for _, s := range sizes {
		total += s
	}
	return TrainerConfig{
		Core:         Config{Sizes: sizes},
		Baseline:     baseline,
		Model:        MLPFactory(64, []int{16}, 4),
		Flat:         true,
		Data:         dataset.Tiny(4, total*30, 80, seed),
		Dist:         dist,
		Rounds:       8,
		EvalEvery:    2,
		LearningRate: 5e-3,
		Epochs:       1,
		BatchSize:    10,
		Seed:         seed,
	}
}

// MLPFactory adapts nn.MLP to the ModelFactory signature for tests.
func MLPFactory(in int, hidden []int, classes int) ModelFactory {
	return func(rng *rand.Rand) (*nn.Model, error) {
		return nn.MLP(in, hidden, classes, rng), nil
	}
}

func TestRunTrainingTwoLayerLearns(t *testing.T) {
	s, err := RunTraining(tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Round) != 4 {
		t.Fatalf("evals = %d, want 4", len(s.Round))
	}
	if s.FinalAcc() < 0.5 {
		t.Fatalf("final accuracy = %v", s.FinalAcc())
	}
	if s.TrainLoss[len(s.TrainLoss)-1] >= s.TrainLoss[0] {
		t.Fatalf("loss did not decrease: %v", s.TrainLoss)
	}
	if s.Bytes[len(s.Bytes)-1] <= s.Bytes[0] {
		t.Fatal("traffic must accumulate across rounds")
	}
}

func TestRunTrainingBaselineComparable(t *testing.T) {
	two, err := RunTraining(tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 2))
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunTraining(tinyTrainerConfig(true, []int{6}, dataset.IID, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core claim: comparable accuracy (Fig. 6) at lower
	// cost. With identical seeds and IID data the accuracies should be
	// within a few points; traffic should favour the two-layer system
	// for these sizes... for N=6, n=3: two-layer (mn²+mn−2)=22|w| vs
	// baseline 2N(N−1)=60|w|.
	if diff := two.FinalAcc() - base.FinalAcc(); diff < -0.25 {
		t.Fatalf("two-layer accuracy %.3f far below baseline %.3f", two.FinalAcc(), base.FinalAcc())
	}
	if two.Bytes[len(two.Bytes)-1] >= base.Bytes[len(base.Bytes)-1] {
		t.Fatalf("two-layer traffic %d not below baseline %d",
			two.Bytes[len(two.Bytes)-1], base.Bytes[len(base.Bytes)-1])
	}
}

func TestRunTrainingNonIID(t *testing.T) {
	s, err := RunTraining(tinyTrainerConfig(false, []int{3, 3}, dataset.NonIID0, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Non-IID learning is harder but must still produce a usable series.
	if len(s.TestAcc) == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestRunTrainingFraction(t *testing.T) {
	cfg := tinyTrainerConfig(false, []int{3, 3, 3, 3}, dataset.IID, 5)
	cfg.Core.Fraction = 0.5
	s, err := RunTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.FinalAcc() < 0.4 {
		t.Fatalf("accuracy at p=0.5 = %v", s.FinalAcc())
	}
}

func TestRunTrainingValidation(t *testing.T) {
	cfg := tinyTrainerConfig(false, []int{3}, dataset.IID, 6)
	cfg.Model = nil
	if _, err := RunTraining(cfg); err == nil {
		t.Fatal("want error for nil model factory")
	}
	cfg = tinyTrainerConfig(false, []int{3}, dataset.IID, 6)
	cfg.Rounds = 0
	if _, err := RunTraining(cfg); err == nil {
		t.Fatal("want error for zero rounds")
	}
}
