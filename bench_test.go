// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation, each driving the same
// experiment code as cmd/p2pfl-experiments at a CI-friendly scale and
// reporting the headline quantity as a custom benchmark metric.
//
//	go test -bench=. -benchmem
//
// Paper-scale runs (1000 rounds / 1000 trials) go through the CLI:
//
//	go run ./cmd/p2pfl-experiments -exp all -rounds 1000 -trials 1000
package repro

import (
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
		BatchSize:    20,
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

func BenchmarkTable1Environment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == nil {
			b.Fatal("no environment")
		}
	}
}

func BenchmarkFig6TwoLayerAccuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Rows[0].FinalAcc // two-layer n=3, IID
	}
	b.ReportMetric(100*acc, "final-acc-%")
}

func BenchmarkFig7TwoLayerLoss(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		loss = res.Rows[0].FinalLossMA
	}
	b.ReportMetric(loss, "final-loss")
}

func BenchmarkFig8Fraction(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		// Accuracy gap between p=1 and p=0.5 under IID (paper: ~2%).
		gap = res.Rows[0].FinalAcc - res.Rows[3].FinalAcc
	}
	b.ReportMetric(100*gap, "p1-vs-p0.5-acc-gap-%")
}

func BenchmarkFig9FractionLoss(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		loss = res.Rows[3].FinalLossMA // p=0.5, IID
	}
	b.ReportMetric(loss, "final-loss")
}

func BenchmarkFig10SubgroupElection(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Rows[0].Stats.Mean // T=50ms setting
	}
	b.ReportMetric(mean, "recover-ms@T=50")
}

func BenchmarkFig11JoinFedAvg(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Rows[0].Stats.Mean
	}
	b.ReportMetric(mean, "recover-ms@T=50")
}

func BenchmarkFig12FedAvgLeaderCrash(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Rows[0].Stats.Mean
	}
	b.ReportMetric(mean, "recover-ms@T=50")
}

func BenchmarkFig13CostVsM(b *testing.B) {
	var m6 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Label == "m=6" {
				m6 = row.Gb
			}
		}
	}
	b.ReportMetric(m6, "Gb@m=6") // paper: 7.12 Gb
}

func BenchmarkFig14CostKN(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		var two, base float64
		for _, row := range res.Rows {
			switch row.Label {
			case "N=30 2-3 (n=3, k=2)":
				two = float64(row.Units)
			case "N=30 baseline (n=N)":
				base = float64(row.Units)
			}
		}
		reduction = base / two
	}
	b.ReportMetric(reduction, "reduction-x") // paper: 10.36x
}
