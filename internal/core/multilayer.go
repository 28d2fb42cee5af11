package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/sac"
	"repro/internal/secretshare"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file implements the X-layer generalization the paper analyzes in
// Sec. VII-C (but does not build): a tree of SAC subgroups of size n.
// Layer 1 is a single group of n peers; every layer-x member leads one
// layer-(x+1) subgroup of itself plus n−1 new peers, except that
// layer-(x+1) leaders who already lead at layer x do not lead again
// deeper (the paper's "cannot become a leader in the x+2-th layer"
// restriction, with the topmost leader also leading at layer 2).
//
// Aggregation runs bottom-up: each subgroup SAC-sums its members'
// subtree sums; the top group divides by N; the result is distributed
// back down the tree ((N−1)·|w|). Total cost matches Eq. 10:
// (N−1)(n+2)·|w|.

// MultiLayerTopology is the peer tree of an X-layer aggregation system.
type MultiLayerTopology struct {
	N      int // total peers (Eq. 6)
	Degree int // subgroup size n
	Layers int // depth X

	// Subgroups per layer, deepest last. Each subgroup lists global peer
	// indices with the leader first. Layer 1 is subgroupsByLayer[0][0].
	subgroupsByLayer [][][]int
}

// BuildMultiLayerTopology constructs the tree for subgroup size n and
// depth layers.
func BuildMultiLayerTopology(n, layers int) (*MultiLayerTopology, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: multilayer needs n ≥ 2, got %d", n)
	}
	if layers < 1 {
		return nil, fmt.Errorf("core: multilayer needs ≥ 1 layer, got %d", layers)
	}
	t := &MultiLayerTopology{Degree: n, Layers: layers}
	next := 0
	newPeer := func() int { next++; return next - 1 }

	// Layer 1: one group of n fresh peers; all of them lead at layer 2.
	var top []int
	for i := 0; i < n; i++ {
		top = append(top, newPeer())
	}
	t.subgroupsByLayer = append(t.subgroupsByLayer, [][]int{top})
	frontier := append([]int(nil), top...) // peers who lead the next layer

	for x := 2; x <= layers; x++ {
		var groups [][]int
		var nextFrontier []int
		for _, leader := range frontier {
			g := []int{leader}
			for i := 0; i < n-1; i++ {
				p := newPeer()
				g = append(g, p)
				// Only the new (follower) peers lead one layer deeper.
				nextFrontier = append(nextFrontier, p)
			}
			groups = append(groups, g)
		}
		t.subgroupsByLayer = append(t.subgroupsByLayer, groups)
		frontier = nextFrontier
	}
	t.N = next
	return t, nil
}

// Subgroups returns the subgroups of layer x (1-based), leader first in
// each subgroup.
func (t *MultiLayerTopology) Subgroups(x int) ([][]int, error) {
	if x < 1 || x > t.Layers {
		return nil, fmt.Errorf("core: layer %d out of [1,%d]", x, t.Layers)
	}
	out := make([][]int, len(t.subgroupsByLayer[x-1]))
	for i, g := range t.subgroupsByLayer[x-1] {
		out[i] = append([]int(nil), g...)
	}
	return out, nil
}

// MultiLayerResult reports one X-layer aggregation.
type MultiLayerResult struct {
	Global []float64
	// Bytes is this aggregation's traffic.
	Bytes int64
	// Aggregations is the number of subgroup SACs executed.
	Aggregations int
}

// MultiLayerOptions tunes AggregateMultiLayerOpts.
type MultiLayerOptions struct {
	// Workers caps how many goroutines (borrowed from the shared tensor
	// worker pool, so never more than the global budget) schedule
	// independent same-layer subgroup SACs concurrently. Values ≤ 1 run
	// fully serial. Results are bit-identical at any setting: every
	// subgroup draws from its own seed-derived RNG stream, so the split
	// of subgroups across workers cannot change what any SAC computes.
	Workers int
	// Scratch pools per-worker mesh/SAC/RNG state across aggregations.
	// Nil allocates a private pool per call (the steady-training caller
	// keeps one and reuses it every round).
	Scratch *MultiLayerScratch
}

// MultiLayerScratch is a free list of per-worker aggregation contexts —
// mesh, SAC scratch, RNG, subgroup model views — shared across the
// subgroup fan-out of one aggregation and reusable across aggregations.
// It is safe for concurrent use; each worker checks a context out, runs
// its span of subgroups, and returns it.
type MultiLayerScratch struct {
	mu    sync.Mutex
	free  []*mlWorker
	seeds []int64
}

// mlWorker is one worker's pooled context. The mesh and SAC
// configuration are rebuilt only when the subgroup size or the traffic
// counter change; between subgroups only the RNG is re-seeded.
type mlWorker struct {
	mesh    *transport.Mesh
	cfg     sac.Config
	counter *transport.Counter
	sc      *sac.Scratch
	src     *mlSource
	rng     *rand.Rand
	sub     [][]float64
}

func (ms *MultiLayerScratch) get(n int, div secretshare.Divider, counter *transport.Counter) *mlWorker {
	ms.mu.Lock()
	var w *mlWorker
	if len(ms.free) > 0 {
		w = ms.free[len(ms.free)-1]
		ms.free = ms.free[:len(ms.free)-1]
	}
	ms.mu.Unlock()
	if w == nil {
		src := &mlSource{}
		w = &mlWorker{src: src, rng: rand.New(src), sc: &sac.Scratch{}}
	}
	if w.mesh == nil || w.cfg.N != n || w.counter != counter {
		w.mesh, w.cfg = sacOn(n, counter, nil, div, w.rng)
		w.cfg.Scratch = w.sc
		w.counter = counter
		w.sub = make([][]float64, 0, n)
	}
	w.cfg.Divider = div // the pool outlives the call; the divider is per call
	return w
}

func (ms *MultiLayerScratch) put(w *mlWorker) {
	ms.mu.Lock()
	ms.free = append(ms.free, w)
	ms.mu.Unlock()
}

// seedBuf returns the pooled per-layer seed buffer, emptied.
func (ms *MultiLayerScratch) seedBuf(capHint int) []int64 {
	if cap(ms.seeds) < capHint {
		ms.seeds = make([]int64, 0, capHint)
	}
	return ms.seeds[:0]
}

// mlSource is a re-seedable splitmix64 rand.Source64. One lives in each
// pooled worker context: re-seeding it per subgroup gives every subgroup
// an independent derived RNG stream without the ~5KB rand.NewSource
// allocation per group (at 100k peers an aggregation runs ~39k SACs).
type mlSource struct{ state uint64 }

func (s *mlSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *mlSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *mlSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// AggregateMultiLayerOpts runs one X-layer aggregation of models
// (indexed by the topology's global peer order) using n-out-of-n SAC in
// every subgroup. div selects the share scheme (nil: Alg. 1); counter may
// be shared (nil allocates one); the zero opts run serially on a private
// scratch. models are borrowed read-only views — never copied, never
// written; a peer's slot in the internal value table is only ever
// overwritten by pointing it at a freshly allocated subtree sum. The
// caller's rng is consumed only for the serial per-subgroup seed draws
// (one Int63 per subgroup, in topology order), so the result depends on
// the seed and the topology alone, not on opts.Workers.
func AggregateMultiLayerOpts(t *MultiLayerTopology, models [][]float64, div secretshare.Divider, rng *rand.Rand, counter *transport.Counter, opts MultiLayerOptions) (*MultiLayerResult, error) {
	if len(models) != t.N {
		return nil, fmt.Errorf("core: %d models for %d peers", len(models), t.N)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if counter == nil {
		counter = transport.NewCounter()
	}
	dim := len(models[0])
	for i, m := range models {
		if len(m) != dim {
			return nil, fmt.Errorf("core: model %d has %d weights, want %d", i, len(m), dim)
		}
	}
	ms := opts.Scratch
	if ms == nil {
		ms = &MultiLayerScratch{}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	before := counter.TotalBytes()

	// value[p] is peer p's current subtree sum: initially a borrowed view
	// of its own model, replaced by an owned vector once a subgroup SAC
	// below it completes.
	value := make([][]float64, t.N)
	copy(value, models)

	aggs := 0
	var errMu sync.Mutex
	var firstErr error
	fail := func(x int, err error) {
		errMu.Lock()
		if firstErr == nil {
			if x == 1 {
				firstErr = fmt.Errorf("core: top layer: %w", err)
			} else {
				firstErr = fmt.Errorf("core: layer %d: %w", x, err)
			}
		}
		errMu.Unlock()
	}

	// Bottom-up: deepest layer first, the single top group last. Within a
	// layer the subgroups touch disjoint value slots (each peer follows in
	// at most one group per layer; each leader slot is written by exactly
	// one group), so they run concurrently without synchronization beyond
	// the per-layer barrier.
	for x := t.Layers; x >= 1; x-- {
		groups := t.subgroupsByLayer[x-1]
		seeds := ms.seedBuf(len(groups))
		for range groups {
			seeds = append(seeds, rng.Int63())
		}
		ms.seeds = seeds
		process := func(lo, hi int) {
			w := ms.get(t.Degree, div, counter)
			defer ms.put(w)
			for gi := lo; gi < hi; gi++ {
				group := groups[gi]
				w.src.Seed(seeds[gi])
				sub := w.sub[:0]
				for _, p := range group {
					sub = append(sub, value[p])
				}
				res, err := sac.Run(w.mesh, w.cfg, sub, nil)
				if err != nil {
					fail(x, err)
					return
				}
				// SAC returns the average over the group; recover the sum so
				// weights of unequal subtrees stay exact. Result.Avg is always
				// freshly allocated, so it can be scaled in place and become
				// the leader's owned subtree sum.
				sum := res.Avg
				cnt := float64(len(res.Contributors))
				for j := range sum {
					sum[j] *= cnt
				}
				value[group[0]] = sum
			}
		}
		if workers == 1 {
			process(0, len(groups))
		} else {
			tensor.ParallelRowsN(len(groups), workers, process)
		}
		if firstErr != nil {
			return nil, firstErr
		}
		aggs += len(groups)
	}

	// The top group's sum is owned (it came out of a SAC), so the global
	// average can divide it in place.
	global := value[t.subgroupsByLayer[0][0][0]]
	for j := range global {
		global[j] /= float64(t.N)
	}

	// Distribute the global model down the tree: every peer except the
	// topmost leader receives it exactly once — (N−1)·|w|.
	for i := 0; i < t.N-1; i++ {
		counter.Record(KindBroadcast, int64(8*dim))
	}

	return &MultiLayerResult{
		Global:       global,
		Bytes:        counter.TotalBytes() - before,
		Aggregations: aggs,
	}, nil
}
