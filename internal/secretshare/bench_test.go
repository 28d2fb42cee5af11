package secretshare

import (
	"fmt"
	"math/rand"
	"testing"
)

// The Divide benchmarks sweep the weight-vector dimension across three
// decades and reuse the caller-owned scratch, so ns/op isolates the
// share kernel and allocs/op stays flat.

const benchShares = 10

var benchDims = []struct {
	name string
	dim  int
}{
	{"dim1e3", 1_000},
	{"dim1e5", 100_000},
	{"dim1e6", 1_000_000},
}

func benchDivideInto(b *testing.B, d Divider, dim int) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	var (
		block []float64
		views [][]float64
		err   error
	)
	b.SetBytes(int64(8 * dim * benchShares))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views, block, err = d.DivideInto(w, benchShares, rng, block, views)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDivideInto(b *testing.B) {
	for _, c := range benchDims {
		for _, d := range []Divider{ScalarDivider{}, MaskDivider{Scale: 1}} {
			name := "scalar"
			if _, ok := d.(MaskDivider); ok {
				name = "mask"
			}
			b.Run(fmt.Sprintf("%s/%s", name, c.name), func(b *testing.B) { benchDivideInto(b, d, c.dim) })
		}
	}
}
