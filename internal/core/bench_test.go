package core

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/sac"
	"repro/internal/transport"
)

// The Serial/Workers4 pair times the tree's subgroup scheduler on warm
// pools at a worker budget of 1 and 4; what the fan-out may allocate on
// top of the serial path is pinned by TestMultiLayerFanOutAllocations.
func benchMultiLayerAggregate(b *testing.B, budget int) {
	setBudget(b, budget)
	topo, err := BuildMultiLayerTopology(4, 6) // N = 1456
	if err != nil {
		b.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(7)), topo.N, 64)
	ms := &MultiLayerScratch{}
	counter := transport.NewCounter()
	opts := MultiLayerOptions{Scratch: ms}
	// Warm the pools so the steady state is what gets measured.
	if _, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(11)), counter, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(11)), counter, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiLayerAggregateSerial(b *testing.B)   { benchMultiLayerAggregate(b, 1) }
func BenchmarkMultiLayerAggregateWorkers4(b *testing.B) { benchMultiLayerAggregate(b, 4) }

// BenchmarkAggregateRound times one two-layer round on a warm system.
// "small" is 30 peers in six 3-of-5 subgroups at 16,384 weights. "paper"
// is bench's agg_mem round: 15 peers as 5×3, k = 2, at the paper CNN's
// 1,250,858 weights, where every round the last peer of a rotating
// subgroup crashes AfterShares and forces a replica recovery. "topk" is
// bench's agg_compress round: the same 15 peers at half the weights,
// models uniform in [−1, 1), no crash, and the FedAvg legs top-k 0.1
// compressed. Profile the aggregation data plane with
//
//	go test -run '^$' -bench 'AggregateRound/paper' -cpuprofile cpu.out ./internal/core
//
// and the compressed one with 'AggregateRound/topk'.
func BenchmarkAggregateRound(b *testing.B) {
	for _, c := range []struct {
		name     string
		sizes    []int
		k, dim   int
		rotating bool // crash the last peer of subgroup i mod m AfterShares in round i
		comp     compress.Config
	}{
		{"small", []int{5, 5, 5, 5, 5, 5}, 3, 1 << 14, false, compress.Config{}},
		{"paper", []int{3, 3, 3, 3, 3}, 2, costmodel.PaperCNNParams, true, compress.Config{}},
		{"topk", []int{3, 3, 3, 3, 3}, 2, costmodel.PaperCNNParams / 2, false, compress.Config{Scheme: compress.TopK, Frac: 0.1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := 0
			for _, size := range c.sizes {
				n += size
			}
			r := rand.New(rand.NewSource(5))
			models := make([][]float64, n)
			for i := range models {
				models[i] = make([]float64, c.dim)
				for j := range models[i] {
					if c.comp.Enabled() {
						models[i][j] = 2*r.Float64() - 1
					} else {
						models[i][j] = r.NormFloat64()
					}
				}
			}
			sys, err := NewSystem(Config{Sizes: c.sizes, K: []int{c.k}, Compression: c.comp}, rand.New(rand.NewSource(6)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var spec RoundSpec
				if g := i % len(c.sizes); c.rotating {
					spec.Crash = map[int]sac.CrashPlan{g: {c.sizes[g] - 1: sac.AfterShares}}
				}
				if _, err := sys.AggregateRound(models, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
