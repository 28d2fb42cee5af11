package experiments

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Ext6CompressionCurve sweeps the accuracy-vs-bytes trade-off of the
// compressed model-delta extension (internal/compress): every setting
// trains the same workload on identical data and model seeds (N=10
// two-layer IID, as Fig. 6), varying only Config.Compression across
// quantization widths and top-k fractions. The "none" row is the exact
// reference; compressed rows shrink the FedAvg-layer traffic (SAC
// shares stay at the 8·dim unit) at a lossy-distribution accuracy cost.
func Ext6CompressionCurve(p Params) (*AccuracyResult, error) {
	p = p.Defaults()
	res := &AccuracyResult{
		Fig:  "ext6",
		Note: "extension: accuracy vs. bytes under compressed model distribution (quant width × top-k fraction; N=10 two-layer IID, equal seeds)",
	}
	spec, factory, flat := accuracyWorkload(10, p.Seed)
	for _, cc := range []compress.Config{
		{},
		{Scheme: compress.Quant16},
		{Scheme: compress.Quant8},
		{Scheme: compress.TopK, Frac: 0.25},
		{Scheme: compress.TopKQuant16, Frac: 0.25},
		{Scheme: compress.TopKQuant8, Frac: 0.25},
		{Scheme: compress.TopKQuant8, Frac: 0.1},
	} {
		label := cc.Scheme.String()
		if cc.Frac > 0 {
			label = fmt.Sprintf("%s k=%.0f%%", cc.Scheme, 100*cc.Frac)
		}
		cfg := core.TrainerConfig{
			Core:         core.Config{Sizes: []int{4, 3, 3}, Compression: cc},
			Model:        factory,
			Flat:         flat,
			Data:         spec,
			Dist:         dataset.IID,
			Rounds:       p.Rounds,
			EvalEvery:    max(1, p.Rounds/25),
			LearningRate: 2e-3,
			BatchSize:    50,
			Workers:      p.Workers,
			Seed:         p.Seed + 1,
			DataSeed:     p.Seed,
		}
		series, err := core.RunTraining(cfg)
		if err != nil {
			return nil, fmt.Errorf("ext6 %s: %w", label, err)
		}
		lossMA := core.MovingAverage(series.TrainLoss, 5)
		res.Rows = append(res.Rows, AccuracyRow{
			Setting:     label,
			Dist:        dataset.IID,
			Series:      series,
			FinalAcc:    series.FinalAcc(),
			FinalLossMA: lossMA[len(lossMA)-1],
			Bytes:       series.Bytes[len(series.Bytes)-1],
		})
	}
	return res, nil
}
