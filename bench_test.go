// Package repro's root benchmark harness: one testing.B sub-benchmark
// per table and figure of the paper's evaluation, each driving the same
// experiment code as cmd/p2pfl-experiments at a CI-friendly scale.
//
//	go test -bench=. -benchmem
//
// Paper-scale runs (1000 rounds / 1000 trials) go through the CLI:
//
//	go run ./cmd/p2pfl-experiments -exp all -rounds 1000 -trials 1000
package repro

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchParams keeps each iteration fast while exercising the full paths.
var benchParams = experiments.Params{Rounds: 15, Trials: 3, MaxN: 30, Seed: 1}

// benchRound15Peers runs full federated rounds on a 15-peer, 3-subgroup
// system at the given tensor worker budget — the end-to-end wall-clock
// view of the parallel training engine. Results are bit-identical at any
// budget (see internal/core's TestWorkersBitIdenticalToSerial); only the
// timing changes with available cores.
func benchRound15Peers(b *testing.B, budget int) {
	b.Helper()
	old := tensor.Parallelism()
	b.Cleanup(func() { tensor.SetParallelism(old) })
	tensor.SetParallelism(budget)
	cfg := core.TrainerConfig{
		Core:         core.Config{Sizes: []int{5, 5, 5}},
		Model:        func(rng *rand.Rand) (*nn.Model, error) { return nn.MLP(64, []int{32}, 4, rng), nil },
		Flat:         true,
		Data:         dataset.Tiny(4, 15*40, 60, 1),
		Dist:         dataset.IID,
		Rounds:       4,
		EvalEvery:    4,
		LearningRate: 2e-3,
		Seed:         1,
	}
	var acc float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.RunTraining(cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = s.FinalAcc()
	}
	b.ReportMetric(100*acc, "final-acc-%")
}

func BenchmarkRound15PeersSerial(b *testing.B)   { benchRound15Peers(b, 1) }
func BenchmarkRound15PeersWorkers4(b *testing.B) { benchRound15Peers(b, 4) }

// BenchmarkExperiments runs the paper's table and figure drivers by
// name, through experiments.Run as the CLI does, one sub-benchmark each.
func BenchmarkExperiments(b *testing.B) {
	for _, name := range []string{"tab1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(name, benchParams)
				if err != nil {
					b.Fatal(err)
				}
				res.Print(io.Discard)
			}
		})
	}
}
