package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
)

func TestRunTrainingWithDP(t *testing.T) {
	cfg := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 21)
	// Weak noise: learning must still work.
	cfg.DP = &dp.Gaussian{Epsilon: 50, Delta: 1e-5, Clip: 5}
	cfg.Rounds = 12
	s, err := RunTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.FinalAcc() < 0.5 {
		t.Fatalf("accuracy with weak DP noise = %v", s.FinalAcc())
	}
}

func TestDPNoiseHurtsUtility(t *testing.T) {
	// The privacy/utility trade-off: strong noise must hurt accuracy
	// relative to the noiseless run on the same seed.
	clean := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 22)
	clean.Rounds = 10
	cs, err := RunTraining(clean)
	if err != nil {
		t.Fatal(err)
	}
	noisy := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 22)
	noisy.Rounds = 10
	noisy.DP = &dp.Gaussian{Epsilon: 0.1, Delta: 1e-5, Clip: 0.5}
	ns, err := RunTraining(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if ns.FinalAcc() >= cs.FinalAcc() {
		t.Fatalf("strong DP noise did not reduce accuracy: %v vs %v", ns.FinalAcc(), cs.FinalAcc())
	}
}

func TestRunTrainingDPValidation(t *testing.T) {
	cfg := tinyTrainerConfig(false, []int{3}, dataset.IID, 23)
	cfg.DP = &dp.Gaussian{Epsilon: 1, Delta: 1e-5, Clip: 0} // no positive clip bound
	if _, err := RunTraining(cfg); err == nil {
		t.Fatal("want error for DP without a positive clip bound")
	}
}
