package core

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// The Serial/Workers4 pair times the tree's subgroup scheduler on warm
// pools; what the fan-out may allocate on top of the serial path is
// pinned by TestMultiLayerFanOutAllocations.
func benchMultiLayerAggregate(b *testing.B, workers int) {
	topo, err := BuildMultiLayerTopology(4, 6) // N = 1456
	if err != nil {
		b.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(7)), topo.N, 64)
	ms := &MultiLayerScratch{}
	counter := transport.NewCounter()
	opts := MultiLayerOptions{Workers: workers, Scratch: ms}
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

// BenchmarkAggregateRound times one two-layer round (30 peers in six
// 3-of-5 subgroups) on a warm system.
func BenchmarkAggregateRound(b *testing.B) {
	const dim = 1 << 14
	models := randModels(rand.New(rand.NewSource(5)), 30, dim)
	sys, err := NewSystem(Config{Sizes: []int{5, 5, 5, 5, 5, 5}, K: []int{3}}, rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AggregateRound(models, RoundSpec{}); err != nil {
			b.Fatal(err)
		}
	}
}
