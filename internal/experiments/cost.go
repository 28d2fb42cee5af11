package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/costmodel"
)

// costRow is one point of a communication-cost figure.
type costRow struct {
	Label string
	// Units is the analytic cost in multiples of |w|.
	Units int64
	// Gb is the analytic cost for the paper's CNN (1.25M params, 32-bit).
	Gb float64
	// MeasuredUnits is the byte-accounted cost of an actual aggregation
	// run divided by the model size in bytes (−1 when not measured).
	MeasuredUnits float64
}

// costResult holds the rows of Fig. 13 or Fig. 14.
type costResult struct {
	Fig  string
	Note string
	Rows []costRow
}

// Name implements Result.
func (r *costResult) Name() string { return r.Fig }

// Print implements Result.
func (r *costResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.Fig, r.Note)
	fmt.Fprintf(w, "  %-24s %12s %12s %16s\n", "setting", "units (|w|)", "Gb (paper CNN)", "measured units")
	for _, row := range r.Rows {
		measured := "-"
		if row.MeasuredUnits >= 0 {
			measured = fmt.Sprintf("%.2f", row.MeasuredUnits)
		}
		fmt.Fprintf(w, "  %-24s %12d %12.2f %16s\n", row.Label, row.Units, row.Gb, measured)
	}
}

// paperWeightBytes is |w| for the paper's CNN at 32-bit floats.
var paperWeightBytes = costmodel.WeightBytes(costmodel.PaperCNNParams, costmodel.BytesPerParam32)

// measureUnits runs one real two-layer aggregation under cfg over
// byte-counting transports with a small weight vector and converts the
// traffic to |w| units.
func measureUnits(cfg core.Config, seed int64) (float64, error) {
	dim := 16
	sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	total := cfg.NumPeers()
	rng := rand.New(rand.NewSource(seed + 1))
	models := make([][]float64, total)
	for i := range models {
		m := make([]float64, dim)
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		models[i] = m
	}
	res, err := sys.AggregateRound(models, core.RoundSpec{})
	if err != nil {
		return 0, err
	}
	return float64(res.Bytes) / float64(8*dim), nil
}

// measureBaselineUnits measures the one-layer SAC cost in |w| units.
func measureBaselineUnits(n int, seed int64) (float64, error) {
	dim := 16
	sys, err := core.NewSystem(core.Config{Sizes: []int{n}}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	models := make([][]float64, n)
	for i := range models {
		m := make([]float64, dim)
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		models[i] = m
	}
	res, err := sys.BaselineAggregate(models)
	if err != nil {
		return 0, err
	}
	return float64(res.Bytes) / float64(8*dim), nil
}

// fig13 sweeps the number of subgroups m for N = 30 peers (n-out-of-n
// sharing) and reports total communication per aggregation. m = 1 is the
// original one-layer SAC; m = N is plain FedAvg without SAC.
func fig13(p Params) (*costResult, error) {
	p = p.Defaults()
	res := &costResult{
		Fig:  "fig13",
		Note: "total communication per aggregation vs. m (N=30, paper CNN |w| ≈ 0.04 Gb)",
	}
	const N = 30
	for m := 1; m <= N; m++ {
		var units int64
		var measured float64 = -1
		if m == 1 {
			u, err := costmodel.BaselineUnits(N)
			if err != nil {
				return nil, err
			}
			units = u
			mu, err := measureBaselineUnits(N, p.Seed)
			if err != nil {
				return nil, err
			}
			measured = mu
		} else {
			sizes, err := core.SplitPeers(N, m)
			if err != nil {
				return nil, err
			}
			units, err = costmodel.TwoLayerUnevenUnits(sizes)
			if err != nil {
				return nil, err
			}
			mu, err := measureUnits(core.Config{Sizes: sizes}, p.Seed+int64(m))
			if err != nil {
				return nil, err
			}
			measured = mu
		}
		res.Rows = append(res.Rows, costRow{
			Label:         fmt.Sprintf("m=%d", m),
			Units:         units,
			Gb:            costmodel.Gigabits(units * paperWeightBytes),
			MeasuredUnits: measured,
		})
	}
	return res, nil
}

// fig14 compares k-out-of-n settings across N: the paper's 3-3, 2-3,
// 5-5, 3-5 curves plus the one-layer baseline (n = N).
func fig14(p Params) (*costResult, error) {
	p = p.Defaults()
	res := &costResult{
		Fig:  "fig14",
		Note: "total communication per aggregation for k-n settings (k-out-of-n, paper CNN |w|)",
	}
	type setting struct {
		label string
		n, k  int
	}
	settings := []setting{
		{"3-3 (n=3, k=3)", 3, 3},
		{"2-3 (n=3, k=2)", 3, 2},
		{"5-5 (n=5, k=5)", 5, 5},
		{"3-5 (n=5, k=3)", 5, 3},
	}
	for N := 10; N <= p.MaxN; N += 10 {
		for _, st := range settings {
			m := (N + st.n - 1) / st.n
			sizes, err := core.SplitPeers(N, m)
			if err != nil {
				return nil, err
			}
			units, err := costmodel.TwoLayerUnevenKNUnits(sizes, st.k)
			if err != nil {
				return nil, err
			}
			var measured float64 = -1
			if N <= 30 {
				measured, err = measureUnits(core.Config{Sizes: sizes, K: []int{st.k}}, p.Seed+int64(N))
				if err != nil {
					return nil, err
				}
			}
			res.Rows = append(res.Rows, costRow{
				Label:         fmt.Sprintf("N=%d %s", N, st.label),
				Units:         units,
				Gb:            costmodel.Gigabits(units * paperWeightBytes),
				MeasuredUnits: measured,
			})
		}
		baseUnits, err := costmodel.BaselineUnits(N)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, costRow{
			Label:         fmt.Sprintf("N=%d baseline (n=N)", N),
			Units:         baseUnits,
			Gb:            costmodel.Gigabits(baseUnits * paperWeightBytes),
			MeasuredUnits: -1,
		})
	}
	return res, nil
}
