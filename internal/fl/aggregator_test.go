package fl

import (
	"math"
	"math/rand"
	"testing"
)

func TestFedAvgAggregatorMatchesWeightedAverage(t *testing.T) {
	models := [][]float64{{1, 2}, {3, 4}}
	counts := []float64{1, 3}
	a, err := FedAvg{}.Aggregate(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WeightedAverage(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FedAvg aggregator must match WeightedAverage")
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
	mean, err := WeightedAverage(poisoned, []float64{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] < 1e8 {
		t.Fatalf("mean %v should be dominated by the outlier", mean[0])
	}
}

func TestTrimmedMean(t *testing.T) {
	models := [][]float64{{-1000}, {1}, {2}, {3}, {1000}}
	got, err := TrimmedMean{Trim: 0.2}.Aggregate(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-12 {
		t.Fatalf("trimmed mean = %v, want 2", got[0])
	}
	// Trim 0 = plain mean.
	got, err = TrimmedMean{}.Aggregate([][]float64{{1}, {3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("untrimmed mean = %v", got[0])
	}
	if _, err := (TrimmedMean{Trim: 0.5}).Aggregate(models, nil); err == nil {
		t.Fatal("want error for trim ≥ 0.5")
	}
	if _, err := (TrimmedMean{Trim: -0.1}).Aggregate(models, nil); err == nil {
		t.Fatal("want error for negative trim")
	}
}

func TestTrimmedMeanKeepsMajority(t *testing.T) {
	// Trim that would remove everything is clamped to keep ≥ 1 value.
	models := [][]float64{{1}, {2}, {3}}
	got, err := TrimmedMean{Trim: 0.49}.Aggregate(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got[0]) {
		t.Fatal("NaN from over-trimming")
	}
}

func TestAggregatorValidation(t *testing.T) {
	for _, a := range []Aggregator{FedAvg{}, CoordinateMedian{}, TrimmedMean{Trim: 0.1}} {
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
	mean, _ := WeightedAverage(models, ones)
	med, _ := CoordinateMedian{}.Aggregate(models, nil)
	trim, _ := TrimmedMean{Trim: 0.1}.Aggregate(models, nil)
	for j := range base {
		if math.Abs(mean[j]-med[j]) > 0.01 || math.Abs(mean[j]-trim[j]) > 0.01 {
			t.Fatalf("rules disagree on clean data: mean=%v med=%v trim=%v", mean[j], med[j], trim[j])
		}
	}
}
