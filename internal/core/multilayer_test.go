package core

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/secretshare"
)

func TestBuildMultiLayerTopology(t *testing.T) {
	for _, nx := range [][2]int{{2, 1}, {3, 2}, {3, 3}, {4, 2}, {5, 3}} {
		n, x := nx[0], nx[1]
		topo, err := BuildMultiLayerTopology(n, x)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := costmodel.MultiLayerPeers(n, x)
		if err != nil {
			t.Fatal(err)
		}
		if int64(topo.N) != wantN {
			t.Fatalf("n=%d X=%d: peers = %d, want %d (Eq. 6)", n, x, topo.N, wantN)
		}
		// Every subgroup has exactly n members, leader first; every peer
		// appears as a non-leader member at most once.
		seen := map[int]int{}
		for layer := 1; layer <= x; layer++ {
			groups, err := topo.Subgroups(layer)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				if len(g) != n {
					t.Fatalf("layer %d: subgroup size %d, want %d", layer, len(g), n)
				}
				for i, p := range g {
					if i > 0 {
						seen[p]++
					}
				}
			}
		}
		for p, c := range seen {
			if c > 1 {
				t.Fatalf("peer %d is a follower in %d subgroups", p, c)
			}
		}
	}
	if _, err := BuildMultiLayerTopology(1, 2); err == nil {
		t.Fatal("want error for n=1")
	}
	if _, err := BuildMultiLayerTopology(3, 0); err == nil {
		t.Fatal("want error for 0 layers")
	}
}

func TestSubgroupsRangeCheck(t *testing.T) {
	topo, err := BuildMultiLayerTopology(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Subgroups(0); err == nil {
		t.Fatal("want range error")
	}
	if _, err := topo.Subgroups(3); err == nil {
		t.Fatal("want range error")
	}
}

func TestMultiLayerAggregateExactMean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, nx := range [][2]int{{2, 2}, {3, 2}, {3, 3}, {4, 2}} {
		n, x := nx[0], nx[1]
		topo, err := BuildMultiLayerTopology(n, x)
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, topo.N, 8)
		res, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(2)), nil, MultiLayerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Global, mean(models)); d > 1e-8 {
			t.Fatalf("n=%d X=%d: X-layer avg off by %v", n, x, d)
		}
	}
}

// Eq. 10: the measured traffic of a real X-layer aggregation equals
// (N−1)(n+2)·|w| exactly.
func TestEq10MatchesMeasuredBytes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dim := 16
	for _, nx := range [][2]int{{3, 1}, {3, 2}, {3, 3}, {4, 2}, {5, 2}} {
		n, x := nx[0], nx[1]
		topo, err := BuildMultiLayerTopology(n, x)
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, topo.N, dim)
		res, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(4)), nil, MultiLayerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		units, err := costmodel.MultiLayerUnits(n, x)
		if err != nil {
			t.Fatal(err)
		}
		want := units * int64(8*dim)
		if res.Bytes != want {
			t.Fatalf("n=%d X=%d: bytes = %d, want %d (Eq. 10)", n, x, res.Bytes, want)
		}
		// And the aggregation count matches the Sec. VII-C derivation.
		wantAggs := 1
		term := n
		for k := 1; k <= x-1; k++ {
			wantAggs += term
			term *= n - 1
		}
		if res.Aggregations != wantAggs {
			t.Fatalf("n=%d X=%d: %d aggregations, want %d", n, x, res.Aggregations, wantAggs)
		}
	}
}

func TestMultiLayerWithMaskDivider(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	topo, err := BuildMultiLayerTopology(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, topo.N, 4)
	res, err := AggregateMultiLayerOpts(topo, models, secretshare.MaskDivider{Scale: 10}, rand.New(rand.NewSource(6)), nil, MultiLayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-8 {
		t.Fatalf("avg off by %v", d)
	}
}

func TestMultiLayerInputValidation(t *testing.T) {
	topo, err := BuildMultiLayerTopology(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	if _, err := AggregateMultiLayerOpts(topo, randModels(r, 3, 4), nil, nil, nil, MultiLayerOptions{}); err == nil {
		t.Fatal("want model-count error")
	}
	bad := randModels(r, topo.N, 4)
	bad[2] = []float64{1}
	if _, err := AggregateMultiLayerOpts(topo, bad, nil, nil, nil, MultiLayerOptions{}); err == nil {
		t.Fatal("want ragged-model error")
	}
}
