package experiments

import (
	"testing"

	"repro/internal/tensor"
)

// TestRecoveryWorkersDeterministic checks the parallel trial loop of the
// recovery figures: a worker budget above 1 must reproduce the serial
// samples exactly, because every trial owns a fresh, independently
// seeded simulation and lands at its own index.
func TestRecoveryWorkersDeterministic(t *testing.T) {
	old := tensor.Parallelism()
	t.Cleanup(func() { tensor.SetParallelism(old) })
	tensor.SetParallelism(1)
	serial, err := fig10(Params{Rounds: 5, Trials: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tensor.SetParallelism(3)
	par, err := fig10(Params{Rounds: 5, Trials: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i, row := range serial.Rows {
		prow := par.Rows[i]
		if len(row.Samples) != len(prow.Samples) {
			t.Fatalf("T=%d: sample counts differ", row.TMs)
		}
		for j := range row.Samples {
			if row.Samples[j] != prow.Samples[j] {
				t.Fatalf("T=%d trial %d: %v (serial) vs %v (budget 3)",
					row.TMs, j, row.Samples[j], prow.Samples[j])
			}
		}
	}
}
