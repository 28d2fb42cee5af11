package compress

import (
	"testing"

	"repro/internal/wire"
)

// The encode benchmarks time quantize/sparsify into a block they lend
// again on every call (the float64 one, framing
// a mesh message); SetBytes is the encoded size, so MB/s is output
// throughput. The size ratios themselves are asserted by wire's
// TestQuantSizeAdvantage.

const benchDim = 100_000

var benchEnv = wire.MeshMessage{From: 3, To: 7, Kind: "fedavg/download"}

func BenchmarkEncodeDeltaFloat64(b *testing.B) {
	w := randVec(benchDim, 42)
	m := benchEnv
	m.Payload = w
	buf := wire.AppendMeshFrame(nil, m)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendMeshFrame(buf[:0], m)
	}
}

func benchmarkEncodeQuant(b *testing.B, width int) {
	w := randVec(benchDim, 42)
	q, _, err := quantize(w, width, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(wire.QuantBlockSize(width, len(q.Q))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, _, err = quantize(w, width, q.Q)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDeltaQuant8(b *testing.B)  { benchmarkEncodeQuant(b, 1) }
func BenchmarkEncodeDeltaQuant16(b *testing.B) { benchmarkEncodeQuant(b, 2) }

func benchmarkEncodeSparse(b *testing.B, frac float64, width int) {
	w := randVec(benchDim, 42)
	k := int(frac * benchDim)
	var d Delta // lent to every call, as core lends its blocks
	if err := d.sparsify(w, k, width); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(wire.SparseBlockSize(width, len(d.Sparse.Idx))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.sparsify(w, k, width); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDeltaSparse10(b *testing.B)   { benchmarkEncodeSparse(b, 0.10, 0) }
func BenchmarkEncodeDeltaSparse10Q8(b *testing.B) { benchmarkEncodeSparse(b, 0.10, 1) }

func BenchmarkDequantize(b *testing.B) {
	w := randVec(benchDim, 42)
	q, _, err := quantize(w, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, benchDim)
	b.SetBytes(int64(8 * benchDim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dequantize(q, dst)
	}
	_ = dst
}
