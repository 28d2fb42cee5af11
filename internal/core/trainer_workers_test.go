package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
)

func equalF64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func requireIdenticalSeries(t *testing.T, serial, parallel *Series, workers int) {
	t.Helper()
	if len(serial.Round) != len(parallel.Round) {
		t.Fatalf("workers=%d: %d evals vs %d serial", workers, len(parallel.Round), len(serial.Round))
	}
	for i := range serial.Round {
		if serial.Round[i] != parallel.Round[i] {
			t.Fatalf("workers=%d: eval %d at round %d, serial at %d", workers, i, parallel.Round[i], serial.Round[i])
		}
		if serial.Bytes[i] != parallel.Bytes[i] {
			t.Fatalf("workers=%d: bytes[%d] = %d, serial %d", workers, i, parallel.Bytes[i], serial.Bytes[i])
		}
	}
	if !equalF64s(serial.TestAcc, parallel.TestAcc) {
		t.Fatalf("workers=%d: accuracy series diverged:\nserial   %v\nparallel %v", workers, serial.TestAcc, parallel.TestAcc)
	}
	if !equalF64s(serial.TrainLoss, parallel.TrainLoss) {
		t.Fatalf("workers=%d: loss series diverged:\nserial   %v\nparallel %v", workers, serial.TrainLoss, parallel.TrainLoss)
	}
	if !equalF64s(serial.FinalGlobal, parallel.FinalGlobal) {
		t.Fatalf("workers=%d: final global weights diverged", workers)
	}
}

// TestWorkersBitIdenticalToSerial is the core determinism guarantee of
// the parallel training engine: any worker count produces the exact
// same Series — accuracy, loss, traffic, and final global weights — as
// a serial run, because clients are self-contained and reductions walk
// ascending client index.
func TestWorkersBitIdenticalToSerial(t *testing.T) {
	base := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 7)
	serial, err := RunTraining(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Workers = workers
		par, err := RunTraining(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalSeries(t, serial, par, workers)
	}
}

// TestWorkersBitIdenticalWithDP extends the determinism guarantee to
// differentially private runs: the DP noise RNG is seeded per
// (round, client), so it cannot depend on scheduling order.
func TestWorkersBitIdenticalWithDP(t *testing.T) {
	base := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 8)
	base.DP = dp.Gaussian{Epsilon: 50, Delta: 1e-5, Clip: 5}
	base.DPClip = 5
	serial, err := RunTraining(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers = 3
	par, err := RunTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalSeries(t, serial, par, 3)
}
