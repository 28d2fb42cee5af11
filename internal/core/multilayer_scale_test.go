package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/transport"
)

// The scale ladder: every tier must complete a full X-layer aggregation
// with measured bytes exactly equal to Eq. 10 and a global model that is
// the true mean. Short mode caps to the 1k tier so -race CI stays fast;
// the full run covers 118096 peers in one test.
func TestMultiLayerScaleTiers(t *testing.T) {
	for _, tier := range costmodel.ScaleTiers() {
		tier := tier
		t.Run(tier.Name, func(t *testing.T) {
			if testing.Short() && tier.Peers > 2000 {
				t.Skipf("short mode: skipping %d-peer tier", tier.Peers)
			}
			dim := 8
			if tier.Peers > 50000 {
				dim = 4
			}
			topo, err := BuildMultiLayerTopology(tier.Degree, tier.Layers)
			if err != nil {
				t.Fatal(err)
			}
			if int64(topo.N) != tier.Peers {
				t.Fatalf("topology has %d peers, tier says %d", topo.N, tier.Peers)
			}
			r := rand.New(rand.NewSource(42))
			models := randModels(r, topo.N, dim)
			ms := &MultiLayerScratch{}
			res, err := AggregateMultiLayerOpts(topo, models, nil,
				rand.New(rand.NewSource(7)), nil, MultiLayerOptions{Scratch: ms})
			if err != nil {
				t.Fatal(err)
			}
			units, err := costmodel.MultiLayerUnits(tier.Degree, tier.Layers)
			if err != nil {
				t.Fatal(err)
			}
			if want := units * 8 * int64(dim); res.Bytes != want {
				t.Fatalf("tier %s: measured %d bytes, Eq. 10 says %d", tier.Name, res.Bytes, want)
			}
			// Share-split/reconstruct error accumulates over ~N additions;
			// scale the tolerance with the tree size.
			tol := 1e-8 * math.Sqrt(float64(topo.N))
			if d := maxAbsDiff(res.Global, mean(models)); d > tol {
				t.Fatalf("tier %s: global off true mean by %v (tol %v)", tier.Name, d, tol)
			}
		})
	}
}

// Parallel subgroup scheduling must be bit-identical to serial at any
// worker budget: per-subgroup derived RNG streams make each SAC's
// randomness a function of the topology position only.
func TestMultiLayerParallelBitIdentical(t *testing.T) {
	topo, err := BuildMultiLayerTopology(4, 5) // N = 484
	if err != nil {
		t.Fatal(err)
	}
	dim := 32
	models := randModels(rand.New(rand.NewSource(9)), topo.N, dim)

	run := func(budget int) *MultiLayerResult {
		setBudget(t, budget)
		res, err := AggregateMultiLayerOpts(topo, models, nil,
			rand.New(rand.NewSource(5)), nil,
			MultiLayerOptions{Scratch: &MultiLayerScratch{}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(1)
	for _, w := range []int{2, 4, 8} {
		par := run(w)
		if par.Bytes != serial.Bytes || par.Aggregations != serial.Aggregations {
			t.Fatalf("budget=%d: bytes/aggs %d/%d, serial %d/%d",
				w, par.Bytes, par.Aggregations, serial.Bytes, serial.Aggregations)
		}
		for j := range serial.Global {
			if math.Float64bits(par.Global[j]) != math.Float64bits(serial.Global[j]) {
				t.Fatalf("budget=%d: global[%d] = %x, serial %x",
					w, j, math.Float64bits(par.Global[j]), math.Float64bits(serial.Global[j]))
			}
		}
	}
}

// The engine borrows the caller's model slices: after an aggregation
// every input vector must be bit-for-bit untouched.
func TestMultiLayerBorrowsModels(t *testing.T) {
	topo, err := BuildMultiLayerTopology(3, 3) // N = 21
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(4)), topo.N, 16)
	snapshot := make([][]float64, len(models))
	for i, m := range models {
		snapshot[i] = append([]float64(nil), m...)
	}
	res, err := AggregateMultiLayerOpts(topo, models, nil,
		rand.New(rand.NewSource(6)), nil, MultiLayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range models {
		for j := range models[i] {
			if math.Float64bits(models[i][j]) != math.Float64bits(snapshot[i][j]) {
				t.Fatalf("model %d weight %d mutated: %v -> %v", i, j, snapshot[i][j], models[i][j])
			}
		}
	}
	for i := range models {
		if &res.Global[0] == &models[i][0] {
			t.Fatalf("global aliases input model %d", i)
		}
	}
}

// One MultiLayerScratch must serve aggregations of different shapes in
// any order and still produce exactly what fresh scratch produces.
func TestMultiLayerScratchReuseAcrossShapes(t *testing.T) {
	shapes := [][2]int{{3, 2}, {4, 3}, {3, 2}, {5, 2}}
	shared := &MultiLayerScratch{}
	for round, nx := range shapes {
		topo, err := BuildMultiLayerTopology(nx[0], nx[1])
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(rand.New(rand.NewSource(int64(100+round))), topo.N, 24)
		seed := int64(200 + round)
		reused, err := AggregateMultiLayerOpts(topo, models, nil,
			rand.New(rand.NewSource(seed)), nil, MultiLayerOptions{Scratch: shared})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := AggregateMultiLayerOpts(topo, models, nil,
			rand.New(rand.NewSource(seed)), nil, MultiLayerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if reused.Bytes != fresh.Bytes {
			t.Fatalf("round %d: bytes %d with reuse, %d fresh", round, reused.Bytes, fresh.Bytes)
		}
		for j := range fresh.Global {
			if math.Float64bits(reused.Global[j]) != math.Float64bits(fresh.Global[j]) {
				t.Fatalf("round %d: global[%d] differs under scratch reuse", round, j)
			}
		}
	}
}

// The fan-out's cost in allocations over the serial schedule is what
// tensor.ParallelRows spends per layer that has more than one subgroup:
// one WaitGroup, and a goroutine closure plus its deferred token release
// per borrowed worker — 7 a layer with three borrowed workers, 8 measured
// under -race — and nothing per subgroup, because every worker runs its
// span on a pooled context. The limit of 10 a layer leaves room for the
// runtime's own GC-conditional allocations (they smear the ~12.6k
// allocations of one aggregation by ±1) and is two orders of magnitude
// below what one allocation per subgroup SAC would add. With a budget of
// 1 the pool lends no worker and the fan-out is the serial path.
func TestMultiLayerFanOutAllocations(t *testing.T) {
	const perFannedLayer, slack = 10, 2
	topo, err := BuildMultiLayerTopology(4, 6) // N = 1456, 485 subgroup SACs
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(7)), topo.N, 64)
	counter := transport.NewCounter()
	measure := func(budget int) float64 {
		setBudget(t, budget)
		opts := MultiLayerOptions{Scratch: &MultiLayerScratch{}}
		return testing.AllocsPerRun(10, func() {
			if _, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(11)), counter, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial := measure(1)
	for _, budget := range []int{1, 4} {
		limit := float64(slack)
		if budget > 1 {
			limit += perFannedLayer * float64(topo.Layers-1) // the top layer is one group
		}
		if fanned := measure(budget); fanned > serial+limit {
			t.Errorf("budget %d: %v allocations, %v serial: fan-out may add %v",
				budget, fanned, serial, limit)
		}
	}
}

// TestMultiLayerScratchServesConcurrentAggregations holds the scratch to
// its "safe for concurrent use": two goroutines aggregating on one
// scratch at once each get exactly the serial global, to the bit: the
// workers come off the free list one at a time, and each call's subgroups
// run on its own seeds.
func TestMultiLayerScratchServesConcurrentAggregations(t *testing.T) {
	const calls = 50
	topo, err := BuildMultiLayerTopology(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(3)), topo.N, 8)
	want, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(4)), nil, MultiLayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shared := &MultiLayerScratch{}
	var wg sync.WaitGroup
	diffs := make([]int, 2)
	for g := range diffs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				res, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(4)), nil, MultiLayerOptions{Scratch: shared})
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want.Global {
					if math.Float64bits(res.Global[j]) != math.Float64bits(want.Global[j]) {
						diffs[g]++
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if diffs[0]+diffs[1] != 0 {
		t.Fatalf("%d of %d aggregations sharing one scratch differ from the serial global", diffs[0]+diffs[1], 2*calls)
	}
}
