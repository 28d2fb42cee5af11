// Package metrics provides the summary statistics and histograms used to
// report the recovery-time distributions (Figs. 10–12) and the training
// curves (Figs. 6–9).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats summarizes a sample of float64 values.
type Stats struct {
	N                int
	Mean, Std        float64
	Min, Max, Median float64
	P90, P99         float64
}

// Summarize computes Stats over xs. An empty sample returns zero Stats.
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := Stats{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if len(sorted) > 1 {
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	s.Median = percentile(sorted, 50)
	s.P90 = percentile(sorted, 90)
	s.P99 = percentile(sorted, 99)
	return s
}

// percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample using linear interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P90, s.P99, s.Max)
}

// Histogram bins values into equal-width buckets over [min, max].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // values below Lo
	Over   int // values above Hi
}

// NewHistogram creates a histogram with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 || hi <= lo {
		return nil, fmt.Errorf("metrics: bad histogram [%v,%v] x%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add bins one value.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x > h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// Render draws an ASCII histogram with the given maximum bar width.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	binW := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := strings.Repeat("█", c*width/maxC)
		fmt.Fprintf(&b, "%8.1f–%-8.1f %6d %s\n", h.Lo+float64(i)*binW, h.Lo+float64(i+1)*binW, c, bar)
	}
	if h.Under > 0 || h.Over > 0 {
		fmt.Fprintf(&b, "  (under: %d, over: %d)\n", h.Under, h.Over)
	}
	return b.String()
}
