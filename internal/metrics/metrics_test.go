package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if percentile(sorted, 0) != 10 || percentile(sorted, 100) != 40 {
		t.Fatal("extremes wrong")
	}
	if got := percentile(sorted, 50); math.Abs(got-25) > 1e-12 {
		t.Fatalf("p50 = %v", got)
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
}

// Property: mean lies in [min, max]; percentiles are monotone.
func TestStatsProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Median <= s.P90+1e-9 && s.P90 <= s.P99+1e-9 && s.P99 <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	if !strings.Contains(Summarize([]float64{1, 2}).String(), "mean=") {
		t.Fatal("string missing mean")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, 2.5, 9.999, 10, -1, 11} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under=%d over=%d", h.Under, h.Over)
	}
	// 0,1 → bin 0; 2.5 → bin 1; 9.999, 10 → bin 4.
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[4] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	out := h.Render(20)
	if !strings.Contains(out, "█") || !strings.Contains(out, "under: 1") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("want error for empty range")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("want error for zero bins")
	}
}

func TestHistogramRenderDefaultWidth(t *testing.T) {
	h, err := NewHistogram(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0.5)
	if h.Render(0) == "" {
		t.Fatal("empty render")
	}
}
