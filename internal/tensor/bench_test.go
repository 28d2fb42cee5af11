package tensor

import (
	"math/rand"
	"testing"
)

// denseShapes are the two Dense layers whose products dominate the
// matmul kernels' time, the only layers that call them: TinyCNN's
// Dense(900→32) at batch 32 (every local step of the round benchmark's
// `train` workload) and PaperCNN's Dense(2304→512) at batch 8.
var denseShapes = []struct {
	name           string
	batch, in, out int
}{
	{"tiny", 32, 900, 32},
	{"paper", 8, 2304, 512},
}

// benchDense runs f once per Dense shape on random operands: x [batch,
// in], the weights w [out, in] and the output gradient g [batch, out].
func benchDense(b *testing.B, f func(b *testing.B, x, w, g *Tensor)) {
	for _, s := range denseShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w, g := randMat(rng, s.batch, s.in), randMat(rng, s.out, s.in), randMat(rng, s.batch, s.out)
			b.ReportAllocs()
			b.ResetTimer()
			f(b, x, w, g)
		})
	}
}

// BenchmarkMatMul is the Dense input gradient: dx = g·W.
func BenchmarkMatMul(b *testing.B) {
	benchDense(b, func(b *testing.B, x, w, g *Tensor) {
		dst := New(x.shape[0], x.shape[1])
		for i := 0; i < b.N; i++ {
			if err := MatMulInto(dst, g, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatMulTransB is the Dense forward pass: y = x·Wᵀ.
func BenchmarkMatMulTransB(b *testing.B) {
	benchDense(b, func(b *testing.B, x, w, g *Tensor) {
		dst := New(g.shape[0], g.shape[1])
		for i := 0; i < b.N; i++ {
			if err := MatMulTransBInto(dst, x, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatMulTransAAcc is the Dense weight gradient: dW += gᵀ·x.
func BenchmarkMatMulTransAAcc(b *testing.B) {
	benchDense(b, func(b *testing.B, x, w, g *Tensor) {
		for i := 0; i < b.N; i++ {
			if err := MatMulTransAAcc(w, g, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkIm2Col(b *testing.B) {
	// conv1 of the paper CNN at batch 8: 3×32×32 same-pad lowering.
	rng := rand.New(rand.NewSource(1))
	x := New(8, 3, 32, 32)
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	_, _, rows, cols := im2ColShape(8, 3, 32, 32, 3, 3, 1, 1)
	dst := New(rows, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := im2ColInto(dst, x, 3, 3, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCol2Im(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	_, _, rows, colw := im2ColShape(8, 3, 32, 32, 3, 3, 1, 1)
	cols := randMat(rng, rows, colw)
	dst := New(8, 3, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := col2ImInto(dst, cols, 3, 3, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
