package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// accuracyRow is one training run of an accuracy/loss figure.
type accuracyRow struct {
	Setting  string
	Dist     dataset.Distribution
	Series   *core.Series
	FinalAcc float64
	// FinalLossMA is the moving-average training loss at the end.
	FinalLossMA float64
	// Bytes is the cumulative aggregation traffic of the run.
	Bytes int64
}

// accuracyResult holds all rows of Figs. 6–9.
type accuracyResult struct {
	Fig  string
	Note string
	Rows []accuracyRow
}

// Name implements Result.
func (r *accuracyResult) Name() string { return r.Fig }

// Print implements Result.
func (r *accuracyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.Fig, r.Note)
	fmt.Fprintf(w, "  %-22s %-14s %10s %12s %14s\n", "setting", "distribution", "final acc", "final loss", "traffic bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-22s %-14s %9.2f%% %12.4f %14d\n",
			row.Setting, row.Dist, 100*row.FinalAcc, row.FinalLossMA, row.Bytes)
	}
}

// accuracyWorkload is the CI-scale stand-in for the paper's CIFAR-10
// training: 10 classes at 8×8 grayscale with an MLP, so 100+ federated
// rounds finish in seconds while preserving the comparisons the figures
// make (two-layer vs. baseline; IID vs. non-IID; p=0.5 vs. p=1).
func accuracyWorkload(numPeers int, seed int64) (dataset.Spec, core.ModelFactory, bool) {
	spec := dataset.Tiny(10, numPeers*60, 600, seed)
	factory := func(rng *rand.Rand) (*nn.Model, error) {
		return nn.MLP(spec.Channels*spec.Size*spec.Size, []int{32}, spec.Classes, rng), nil
	}
	return spec, factory, true
}

func runAccuracy(setting string, sizes []int, baseline bool, fraction float64, dist dataset.Distribution, rounds int, dataSeed, trainSeed int64) (accuracyRow, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	spec, factory, flat := accuracyWorkload(total, dataSeed)
	cfg := core.TrainerConfig{
		Core:         core.Config{Sizes: sizes, Fraction: fraction},
		Baseline:     baseline,
		Model:        factory,
		Flat:         flat,
		Data:         spec,
		Dist:         dist,
		Rounds:       rounds,
		EvalEvery:    max(1, rounds/25),
		LearningRate: 2e-3,
		Seed:         trainSeed,
		DataSeed:     dataSeed,
	}
	series, err := core.RunTraining(cfg)
	if err != nil {
		return accuracyRow{}, err
	}
	lossMA := core.MovingAverage(series.TrainLoss, 5)
	row := accuracyRow{
		Setting:     setting,
		Dist:        dist,
		Series:      series,
		FinalAcc:    series.FinalAcc(),
		FinalLossMA: lossMA[len(lossMA)-1],
		Bytes:       series.Bytes[len(series.Bytes)-1],
	}
	return row, nil
}

// fig6 reproduces the test-accuracy comparison: N = 10 peers total,
// subgroups of n = 3 (sizes 4,3,3), n = 5 (5,5) and n = 10 (the original
// one-layer SAC), under IID / non-IID(5%) / non-IID(0%).
func fig6(p Params) (*accuracyResult, error) {
	p = p.Defaults()
	res := &accuracyResult{
		Fig:  "fig6",
		Note: "test accuracy, two-layer SAC vs. original SAC (N=10; CI-scale synthetic workload)",
	}
	type setting struct {
		label    string
		sizes    []int
		baseline bool
	}
	settings := []setting{
		{"two-layer n=3", []int{4, 3, 3}, false},
		{"two-layer n=5", []int{5, 5}, false},
		{"baseline n=10 (SAC)", []int{10}, true},
	}
	dists := []dataset.Distribution{dataset.IID, dataset.NonIID5, dataset.NonIID0}
	for _, st := range settings {
		for _, d := range dists {
			// Shared data seed (same dataset + partitions across all
			// settings, as in the paper's comparisons); training seed
			// varies per setting, so rows differ only by the topology
			// plus ordinary SGD stochasticity.
			row, err := runAccuracy(st.label, st.sizes, st.baseline, 1, d, p.Rounds, p.Seed, p.Seed+int64(len(res.Rows))+1)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s/%s: %w", st.label, d, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// fig7 is the training-loss view of the Fig. 6 runs.
func fig7(p Params) (*accuracyResult, error) {
	res, err := fig6(p)
	if err != nil {
		return nil, err
	}
	res.Fig = "fig7"
	res.Note = "training loss (moving average), same runs as Fig. 6"
	return res, nil
}

// fig8 reproduces the slow-subgroup experiment: N = 20, n = 5 (four
// subgroups) with fraction p ∈ {0.5, 1}.
func fig8(p Params) (*accuracyResult, error) {
	p = p.Defaults()
	res := &accuracyResult{
		Fig:  "fig8",
		Note: "test accuracy under subgroup fraction p (N=20, n=5; CI-scale synthetic workload)",
	}
	dists := []dataset.Distribution{dataset.IID, dataset.NonIID5, dataset.NonIID0}
	for _, frac := range []float64{1, 0.5} {
		for _, d := range dists {
			label := fmt.Sprintf("p=%.1f", frac)
			row, err := runAccuracy(label, []int{5, 5, 5, 5}, false, frac, d, p.Rounds, p.Seed, p.Seed+int64(len(res.Rows))+1)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s/%s: %w", label, d, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// fig9 is the training-loss view of the Fig. 8 runs.
func fig9(p Params) (*accuracyResult, error) {
	res, err := fig8(p)
	if err != nil {
		return nil, err
	}
	res.Fig = "fig9"
	res.Note = "training loss (moving average), same runs as Fig. 8"
	return res, nil
}
