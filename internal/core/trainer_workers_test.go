package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/tensor"
)

// setBudget pins the tensor worker budget, the one fan-out every
// parallel path of the package borrows from, until the test ends.
func setBudget(tb testing.TB, n int) {
	tb.Helper()
	old := tensor.Parallelism()
	tb.Cleanup(func() { tensor.SetParallelism(old) })
	tensor.SetParallelism(n)
}

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

func requireIdenticalSeries(t *testing.T, serial, parallel *Series, budget int) {
	t.Helper()
	if len(serial.Round) != len(parallel.Round) {
		t.Fatalf("budget=%d: %d evals vs %d serial", budget, len(parallel.Round), len(serial.Round))
	}
	for i := range serial.Round {
		if serial.Round[i] != parallel.Round[i] {
			t.Fatalf("budget=%d: eval %d at round %d, serial at %d", budget, i, parallel.Round[i], serial.Round[i])
		}
		if serial.Bytes[i] != parallel.Bytes[i] {
			t.Fatalf("budget=%d: bytes[%d] = %d, serial %d", budget, i, parallel.Bytes[i], serial.Bytes[i])
		}
	}
	if !equalF64s(serial.TestAcc, parallel.TestAcc) {
		t.Fatalf("budget=%d: accuracy series diverged:\nserial   %v\nparallel %v", budget, serial.TestAcc, parallel.TestAcc)
	}
	if !equalF64s(serial.TrainLoss, parallel.TrainLoss) {
		t.Fatalf("budget=%d: loss series diverged:\nserial   %v\nparallel %v", budget, serial.TrainLoss, parallel.TrainLoss)
	}
	if !equalF64s(serial.FinalGlobal, parallel.FinalGlobal) {
		t.Fatalf("budget=%d: final global weights diverged", budget)
	}
}

// TestWorkersBitIdenticalToSerial is the core determinism guarantee of
// the parallel training engine: any worker budget produces the exact
// same Series — accuracy, loss, traffic, and final global weights — as
// a serial run, because clients are self-contained and reductions walk
// ascending client index.
func TestWorkersBitIdenticalToSerial(t *testing.T) {
	base := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 7)
	setBudget(t, 1)
	serial, err := RunTraining(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{2, 4} {
		setBudget(t, budget)
		par, err := RunTraining(base)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalSeries(t, serial, par, budget)
	}
}

// TestWorkersBitIdenticalWithDP extends the determinism guarantee to
// differentially private runs: the DP noise RNG is seeded per
// (round, client), so it cannot depend on scheduling order.
func TestWorkersBitIdenticalWithDP(t *testing.T) {
	base := tinyTrainerConfig(false, []int{3, 3}, dataset.IID, 8)
	base.DP = &dp.Gaussian{Epsilon: 50, Delta: 1e-5, Clip: 5}
	setBudget(t, 1)
	serial, err := RunTraining(base)
	if err != nil {
		t.Fatal(err)
	}
	setBudget(t, 3)
	par, err := RunTraining(base)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalSeries(t, serial, par, 3)
}
