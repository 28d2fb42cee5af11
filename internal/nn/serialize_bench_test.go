package nn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/wire"
)

// The codec benchmarks run on a PaperCNN-sized weight vector (CIFAR-10
// configuration, ~545k params — the |w| that dominates the paper's
// cost model). Encoding must stay allocation-free at steady state: the
// frame goes into a reused buffer and the flat weights into a reused
// scratch vector.

var (
	encBenchOnce  sync.Once
	encBenchModel *Model
)

func encodeBenchModel(b *testing.B) *Model {
	encBenchOnce.Do(func() {
		m, err := PaperCNN(3, 32, 10, rand.New(rand.NewSource(11)))
		if err == nil {
			encBenchModel = m
		}
	})
	if encBenchModel == nil {
		b.Fatal("PaperCNN construction failed")
	}
	return encBenchModel
}

func BenchmarkEncodeModelWire(b *testing.B) {
	m := encodeBenchModel(b)
	names, sizes := m.schema()
	cp := wire.Checkpoint{Names: names, Sizes: sizes, Weights: m.WeightVector()}
	buf := wire.AppendCheckpointFrame(nil, cp) // size the buffer once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendCheckpointFrame(buf[:0], cp)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkDecodeModelWire covers the receive side: decoding a
// checkpoint frame of the same model.
func BenchmarkDecodeModelWire(b *testing.B) {
	m := encodeBenchModel(b)
	names, sizes := m.schema()
	frame := wire.AppendCheckpointFrame(nil, wire.Checkpoint{Names: names, Sizes: sizes, Weights: m.WeightVector()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeCheckpointPayload(frame[wire.HeaderSize:]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}
