package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fl"
)

// A poisoned subgroup (all its peers submit a huge model) corrupts the
// FedAvg global model but not the coordinate-median one — the robustness
// knob the paper's "agnostic to the aggregation algorithm" remark allows.
func TestRobustUpperLayerResistsPoisonedSubgroup(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	models := randModels(r, 9, 4) // 3 subgroups of 3
	for i := 6; i < 9; i++ {      // subgroup 2 is poisoned
		for j := range models[i] {
			models[i][j] = 1e9
		}
	}
	run := func(agg fl.Aggregator) []float64 {
		sys, err := NewSystem(Config{Sizes: []int{3, 3, 3}, Aggregator: agg}, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Global
	}
	avg := run(nil) // FedAvg
	med := run(fl.CoordinateMedian{})
	if math.Abs(avg[0]) < 1e7 {
		t.Fatalf("FedAvg should be dominated by the poison: %v", avg[0])
	}
	if math.Abs(med[0]) > 10 {
		t.Fatalf("median upper layer let the poison through: %v", med[0])
	}
}

func TestTrimmedMeanUpperLayer(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	models := randModels(r, 10, 4) // 5 subgroups of 2
	for j := range models[0] {
		models[0][j] = -1e6
		models[1][j] = -1e6
	}
	sys, err := NewSystem(Config{
		Sizes:      []int{2, 2, 2, 2, 2},
		Aggregator: fl.TrimmedMean{Trim: 0.2},
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Global[0]) > 100 {
		t.Fatalf("trimmed mean let the poisoned subgroup through: %v", res.Global[0])
	}
}
