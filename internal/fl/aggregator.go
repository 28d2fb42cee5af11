package fl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Aggregator combines the (SAC-protected) subgroup models into a global
// model. The paper's Alg. 3 notes the system "is agnostic to the
// aggregation algorithm, which can be chosen appropriately for each use
// case"; FedAvg is the default, and the robust alternatives below resist
// outlier subgroup models.
type Aggregator interface {
	// Aggregate combines models with per-model weights (sample counts).
	// It returns a vector of its own: it neither returns nor keeps any
	// of models, so a caller may overwrite them once it returns (core's
	// FedAvg leader decodes every round's uploads into the same vectors).
	Aggregate(models [][]float64, counts []float64) ([]float64, error)
	// Name identifies the rule for logs.
	Name() string
}

// FedAvg is the paper's default: the sample-count-weighted average.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Aggregator: the FedAvg update
// w ← Σ_k (n_k / n) · w_k, where n_k is the sample count backing model k.
// Every count must be finite and non-negative, and at least one positive.
func (a FedAvg) Aggregate(models [][]float64, counts []float64) ([]float64, error) {
	return a.AggregateInto(nil, models, counts)
}

// AggregateInto is Aggregate writing the update into dst[:dim], which it
// makes only when dst has no room for it (cap(dst) < dim), so a caller
// that keeps the global model across rounds allocates it once. dst must
// not overlap any of models.
func (FedAvg) AggregateInto(dst []float64, models [][]float64, counts []float64) ([]float64, error) {
	if err := checkModels(models, counts); err != nil {
		return nil, err
	}
	if counts == nil {
		return nil, fmt.Errorf("fl: FedAvg needs the %d models' sample counts", len(models))
	}
	total := 0.0
	for _, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("fl: sample count %v is not a finite non-negative number", c)
		}
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("fl: all sample counts are zero")
	}
	// The fractions n_k/n live on the stack for up to 16 models.
	var buf [16]float64
	f := buf[:0]
	if len(models) > len(buf) {
		f = make([]float64, 0, len(models))
	}
	for _, c := range counts {
		f = append(f, c/total)
	}
	// Every float of dst is written, so a lent one is not cleared.
	dim := len(models[0])
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	dst = dst[:dim]
	tensor.WeightedSumInto(dst, f, models)
	return dst, nil
}

// CoordinateMedian aggregates by the per-coordinate median, ignoring the
// sample counts — a classic robust rule that tolerates up to half the
// inputs being arbitrary.
type CoordinateMedian struct{}

// Name implements Aggregator.
func (CoordinateMedian) Name() string { return "coordinate-median" }

// Aggregate implements Aggregator.
func (a CoordinateMedian) Aggregate(models [][]float64, counts []float64) ([]float64, error) {
	return a.AggregateInto(nil, models, counts)
}

// AggregateInto is Aggregate writing the median into dst[:dim], which it
// makes only when dst has no room for it (cap(dst) < dim), so a caller
// that keeps its destination across rounds allocates it once. dst must
// not overlap any of models.
func (CoordinateMedian) AggregateInto(dst []float64, models [][]float64, counts []float64) ([]float64, error) {
	if err := checkModels(models, counts); err != nil {
		return nil, err
	}
	dim := len(models[0])
	// Every float of out is written, so a lent one is not cleared.
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	out := dst[:dim]
	// The column lives on the stack for up to 16 models.
	var buf [16]float64
	col := buf[:0]
	if len(models) > len(buf) {
		col = make([]float64, 0, len(models))
	}
	col = col[:len(models)]
	for j := 0; j < dim; j++ {
		for i, m := range models {
			col[i] = m[j]
		}
		sort.Float64s(col)
		mid := len(col) / 2
		if len(col)%2 == 1 {
			out[j] = col[mid]
		} else {
			out[j] = (col[mid-1] + col[mid]) / 2
		}
	}
	return out, nil
}

// TrimmedMean drops the trimFraction of extreme values on each side of
// every coordinate before averaging the rest (uniformly weighted).
type TrimmedMean struct{}

// trimFraction is the fraction TrimmedMean removes from EACH side:
// ⌊0.2·m⌋ of m values, so at least the middle 60 % stay.
const trimFraction = 0.2

// Name implements Aggregator.
func (TrimmedMean) Name() string { return fmt.Sprintf("trimmed-mean(%.2f)", trimFraction) }

// Aggregate implements Aggregator.
func (TrimmedMean) Aggregate(models [][]float64, counts []float64) ([]float64, error) {
	if err := checkModels(models, counts); err != nil {
		return nil, err
	}
	k := int(trimFraction * float64(len(models)))
	dim := len(models[0])
	out := make([]float64, dim)
	col := make([]float64, len(models))
	for j := 0; j < dim; j++ {
		for i, m := range models {
			col[i] = m[j]
		}
		sort.Float64s(col)
		kept := col[k : len(col)-k]
		sum := 0.0
		for _, v := range kept {
			sum += v
		}
		out[j] = sum / float64(len(kept))
	}
	return out, nil
}

func checkModels(models [][]float64, counts []float64) error {
	if len(models) == 0 {
		return fmt.Errorf("fl: no models to aggregate")
	}
	if counts != nil && len(counts) != len(models) {
		return fmt.Errorf("fl: %d counts for %d models", len(counts), len(models))
	}
	dim := len(models[0])
	for i, m := range models {
		if len(m) != dim {
			return fmt.Errorf("fl: model %d has %d weights, want %d", i, len(m), dim)
		}
	}
	return nil
}
