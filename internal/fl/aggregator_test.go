package fl

import (
	"math"
	"math/rand"
	"testing"
)

// TestFedAvgAggregatorMatchesWeightedAverage: FedAvg's average is the
// untiled weighted sum, bit for bit.
func TestFedAvgAggregatorMatchesWeightedAverage(t *testing.T) {
	models := [][]float64{{1, 2}, {3, 4}}
	counts := []float64{1, 3}
	a, err := FedAvg{}.Aggregate(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	b := untiledWeightedAverage(models, counts)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("FedAvg gives %v, the weighted average is %v", a, b)
		}
	}
}

func TestCoordinateMedianKnown(t *testing.T) {
	models := [][]float64{{1, 10}, {2, 20}, {100, -5}}
	got, err := CoordinateMedian{}.Aggregate(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 10 {
		t.Fatalf("median = %v, want [2 10]", got)
	}
	// Even count: midpoint.
	models = [][]float64{{1}, {3}, {5}, {7}}
	got, err = CoordinateMedian{}.Aggregate(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 {
		t.Fatalf("even median = %v, want 4", got[0])
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	// One poisoned model must not move the median beyond the honest
	// models' range, while it drags the mean arbitrarily far.
	honest := [][]float64{{1.0}, {1.1}, {0.9}, {1.05}}
	poisoned := append(append([][]float64{}, honest...), []float64{1e9})
	med, err := CoordinateMedian{}.Aggregate(poisoned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if med[0] < 0.9 || med[0] > 1.1 {
		t.Fatalf("median %v outside honest range", med[0])
	}
	mean, err := FedAvg{}.Aggregate(poisoned, []float64{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] < 1e8 {
		t.Fatalf("mean %v should be dominated by the outlier", mean[0])
	}
}

func TestTrimmedMean(t *testing.T) {
	models := [][]float64{{-1000}, {1}, {2}, {3}, {1000}}
	got, err := TrimmedMean{}.Aggregate(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-12 {
		t.Fatalf("trimmed mean = %v, want 2", got[0])
	}
	// Under five values ⌊0.2·m⌋ = 0: the plain mean.
	got, err = TrimmedMean{}.Aggregate([][]float64{{1}, {3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("untrimmed mean = %v", got[0])
	}
	if name := (TrimmedMean{}).Name(); name != "trimmed-mean(0.20)" {
		t.Fatalf("name %q, want trimmed-mean(0.20)", name)
	}
}

// TestTrimmedMeanKeepsMajority: at every count m the fixed 20 % trim
// drops ⌊m/5⌋ outliers on each side, however far out, and averages the
// m − 2⌊m/5⌋ values between them — never fewer than three in five.
func TestTrimmedMeanKeepsMajority(t *testing.T) {
	for m := 1; m <= 12; m++ {
		k, kept := m/5, m-2*(m/5)
		var models [][]float64
		for i := range k {
			models = append(models, []float64{-1e9 * float64(i+1)}, []float64{2e9 * float64(i+1)})
		}
		for i := range kept {
			models = append(models, []float64{float64(i)})
		}
		got, err := TrimmedMean{}.Aggregate(models, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(kept-1) / 2; got[0] != want || 5*kept < 3*m {
			t.Fatalf("m = %d: trimmed mean %v of %d kept values, want %v", m, got[0], kept, want)
		}
	}
}

func TestAggregatorValidation(t *testing.T) {
	for _, a := range []Aggregator{FedAvg{}, CoordinateMedian{}, TrimmedMean{}} {
		if a.Name() == "" {
			t.Fatal("empty name")
		}
		if _, err := a.Aggregate(nil, nil); err == nil {
			t.Fatalf("%s: want error for empty input", a.Name())
		}
		if _, err := a.Aggregate([][]float64{{1}, {1, 2}}, nil); err == nil {
			t.Fatalf("%s: want error for ragged input", a.Name())
		}
	}
	if _, err := (CoordinateMedian{}).Aggregate([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want count-mismatch error")
	}
	if _, err := (FedAvg{}).Aggregate([][]float64{{1}}, nil); err == nil {
		t.Fatal("want missing-counts error")
	}
}

// All three rules agree on symmetric, outlier-free input.
func TestAggregatorsAgreeOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := []float64{5, -3, 2}
	var models [][]float64
	for i := 0; i < 101; i++ { // odd count, symmetric noise
		m := make([]float64, 3)
		for j := range m {
			noise := rng.NormFloat64() * 0.01
			m[j] = base[j] + noise
		}
		models = append(models, m)
	}
	ones := make([]float64, len(models))
	for i := range ones {
		ones[i] = 1
	}
	mean, _ := FedAvg{}.Aggregate(models, ones)
	med, _ := CoordinateMedian{}.Aggregate(models, nil)
	trim, _ := TrimmedMean{}.Aggregate(models, nil)
	for j := range base {
		if math.Abs(mean[j]-med[j]) > 0.01 || math.Abs(mean[j]-trim[j]) > 0.01 {
			t.Fatalf("rules disagree on clean data: mean=%v med=%v trim=%v", mean[j], med[j], trim[j])
		}
	}
}

// TestAggregatorsReturnVectorsOfTheirOwn pins Aggregator's contract for
// every rule, one model or several: writing all over the result leaves
// the inputs alone, and writing all over the inputs leaves the result
// alone.
func TestAggregatorsReturnVectorsOfTheirOwn(t *testing.T) {
	const outPoison, inPoison = 1e300, -1e300
	rng := rand.New(rand.NewSource(3))
	for _, agg := range []Aggregator{FedAvg{}, CoordinateMedian{}, TrimmedMean{}} {
		for _, n := range []int{1, 5} {
			models := make([][]float64, n)
			counts := make([]float64, n)
			for i := range models {
				models[i] = make([]float64, 8, 12)
				for j := range models[i] {
					models[i][j] = rng.NormFloat64()
				}
				counts[i] = float64(i + 1)
			}
			out, err := agg.Aggregate(models, counts)
			if err != nil {
				t.Fatal(err)
			}
			full := out[:cap(out)]
			for j := range full {
				full[j] = outPoison
			}
			for i, m := range models {
				m = m[:cap(m)]
				for j, v := range m {
					if v == outPoison {
						t.Fatalf("%s over %d models: writing the result changed model %d", agg.Name(), n, i)
					}
					m[j] = inPoison
				}
			}
			for _, v := range out {
				if v != outPoison {
					t.Fatalf("%s over %d models: writing the inputs changed the result", agg.Name(), n)
				}
			}
		}
	}
}

// TestFedAvgAggregateIntoWritesWhereItIsLent: AggregateInto writes, bit
// for bit, Aggregate's average into dst[:dim] when dst has room for it,
// and otherwise makes a vector and leaves dst as it was.
func TestFedAvgAggregateIntoWritesWhereItIsLent(t *testing.T) {
	checkAggregateInto(t, FedAvg{}, FedAvg{}.AggregateInto, 3, []float64{2, 1, 4})
}

// TestCoordinateMedianAggregateIntoWritesWhereItIsLent is the same
// contract for the median, over an odd and an even number of models, at
// more than the 16 its column holds on the stack too.
func TestCoordinateMedianAggregateIntoWritesWhereItIsLent(t *testing.T) {
	for _, n := range []int{3, 4, 17} {
		checkAggregateInto(t, CoordinateMedian{}, CoordinateMedian{}.AggregateInto, n, nil)
	}
}

// checkAggregateInto holds into to a's Aggregate over n random models
// and counts, at destinations with room, with more and with too little.
func checkAggregateInto(t *testing.T, a Aggregator, into func(dst []float64, models [][]float64, counts []float64) ([]float64, error), n int, counts []float64) {
	t.Helper()
	const dim = 37 // long enough for a tail past the kernel's blocks
	rng := rand.New(rand.NewSource(5))
	models := make([][]float64, n)
	for i := range models {
		models[i] = make([]float64, dim)
		for j := range models[i] {
			models[i][j] = rng.NormFloat64()
		}
	}
	want, err := a.Aggregate(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{dim, dim + 3, dim - 1} {
		buf := make([]float64, size)
		for j := range buf {
			buf[j] = math.NaN()
		}
		got, err := into(buf[:size:size], models, counts)
		if err != nil {
			t.Fatal(err)
		}
		lent := size >= dim
		if len(got) != dim || (&got[0] == &buf[0]) != lent {
			t.Fatalf("%s, dst of %d floats: got %d floats, written into dst %v, want %v", a.Name(), size, len(got), &got[0] == &buf[0], lent)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s, dst of %d floats: weight %d is %v, Aggregate's %v", a.Name(), size, j, got[j], want[j])
			}
		}
		for j, x := range buf {
			if (!lent || j >= dim) && !math.IsNaN(x) {
				t.Fatalf("%s, dst of %d floats: float %d, outside the result, was written", a.Name(), size, j)
			}
		}
	}
}
