package compress

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/wire"
)

// sparsifySorted is the sort-based top-k sparsify replaced: order every
// coordinate by (|w| descending, index ascending), keep the first k,
// sort the kept indices. It is the oracle the selection must match bit
// for bit (MeasuredL2Err aside, whose summation order changed).
func sparsifySorted(w []float64, k, width int) (wire.SparseDelta, Bound) {
	dim := len(w)
	k = min(max(k, 0), dim)
	order := magnitudeOrder(w)
	idx := append([]int32(nil), order[:k]...)
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	s := wire.SparseDelta{Dim: dim, Idx: idx, Width: width}
	kept := make([]float64, k)
	for i := range kept {
		kept[i] = w[idx[i]]
	}
	b := Bound{Kept: k, Dim: dim}
	if k < dim {
		b.MaxCoordErr = math.Abs(w[order[k]])
	}
	for _, i := range order[k:] {
		b.MeasuredMaxErr = math.Max(b.MeasuredMaxErr, math.Abs(w[i]))
	}
	if width == 0 {
		s.Vals = kept
		return s, b
	}
	q, qb, _ := quantize(kept, width, nil)
	s.Scale, s.Q = q.Scale, q.Q
	b.MaxCoordErr += qb.MaxCoordErr
	b.MeasuredMaxErr = math.Max(b.MeasuredMaxErr, qb.MeasuredMaxErr)
	return s, b
}

// magnitudeOrder is the reference's strict order: every index of w by
// |w| descending, then index ascending.
func magnitudeOrder(w []float64) []int32 {
	order := make([]int32, len(w))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := math.Abs(w[order[a]]), math.Abs(w[order[b]])
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	return order
}

// selectionInputs are the shapes a selection can get wrong: heavy ties
// at the threshold, one repeated value, signed zeros, denormals and
// infinities, sorted runs, and plain noise.
func selectionInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	few := make([]float64, 5000)
	for i := range few {
		few[i] = float64(rng.Intn(7)-3) * 0.25 // 7 distinct values, ±ties
	}
	same := make([]float64, 3000)
	for i := range same {
		same[i] = -2.5
	}
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1, math.SmallestNonzeroFloat64, 0, 1}
	asc := make([]float64, 4096)
	for i := range asc {
		asc[i] = float64(i) * 1e-3
	}
	desc := make([]float64, 4096)
	for i := range desc {
		desc[i] = -float64(len(desc) - i)
	}
	// Magnitudes sharing every radix digit but the last.
	near := make([]float64, 2048)
	for i := range near {
		near[i] = math.Float64frombits(math.Float64bits(1.0) + uint64(rng.Intn(300)))
	}
	return map[string][]float64{
		"noise": randVec(10_007, 3), "few-values": few, "one-value": same,
		"edge": edge, "ascending": asc, "descending": desc, "last-digit": near,
	}
}

// TestSparsifyMatchesSortedReference pins the selection to the sort it
// replaced: indices, values, quantized steps, scale and both error
// bounds are bit-identical for every k that matters, and the new L2
// error agrees up to summation order.
func TestSparsifyMatchesSortedReference(t *testing.T) {
	for name, w := range selectionInputs() {
		dim := len(w)
		for _, k := range []int{-1, 0, 1, 2, dim / 10, dim / 2, dim - 1, dim, dim + 3} {
			for _, width := range []int{0, 1, 2} {
				got, gb, err := sparsify(w, k, width)
				if err != nil {
					t.Fatal(err)
				}
				want, wb := sparsifySorted(w, k, width)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d width=%d: sparse block differs from the sorted reference\n got idx %v\nwant idx %v",
						name, k, width, head(got.Idx), head(want.Idx))
				}
				if gb.Kept != wb.Kept || gb.Dim != wb.Dim ||
					math.Float64bits(gb.MaxCoordErr) != math.Float64bits(wb.MaxCoordErr) ||
					math.Float64bits(gb.MeasuredMaxErr) != math.Float64bits(wb.MeasuredMaxErr) {
					t.Fatalf("%s k=%d width=%d: bound %+v, reference %+v", name, k, width, gb, wb)
				}
				dense := got.Dense(nil)
				l2 := 0.0
				for i, v := range w {
					if d := v - dense[i]; !math.IsInf(v, 0) {
						l2 += d * d
					}
				}
				if l2 = math.Sqrt(l2); !math.IsInf(gb.MeasuredL2Err, 0) && math.Abs(gb.MeasuredL2Err-l2) > 1e-9*(1+l2) {
					t.Fatalf("%s k=%d width=%d: MeasuredL2Err %g, recomputed %g", name, k, width, gb.MeasuredL2Err, l2)
				}
			}
		}
	}
}

// meanOfUniforms is a subgroup average's shape: each coordinate the mean
// of m uniforms in [−1, 1).
func meanOfUniforms(dim, m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		for j := 0; j < m; j++ {
			w[i] += 2*rng.Float64() - 1
		}
		w[i] /= float64(m)
	}
	return w
}

// TestKthMagnitudeWithAnyBufferMatchesSort pins the selection's
// (t, ties) to the sorted order whatever buffer it is lent: capacity 0
// or 1 (the survivors never fit, or only in the last passes), one short
// of the first pass's bucket (they fit from a later pass), the bucket
// itself (they fit after the first pass) and k. The buffer starts full
// of NaNs, which order above every input here, so a pass that read it
// before writing it would count them.
func TestKthMagnitudeWithAnyBufferMatchesSort(t *testing.T) {
	inputs := selectionInputs()
	inputs["mean-of-3"] = meanOfUniforms(10_000, 3, 21)
	inputs["mean-of-15"] = meanOfUniforms(10_003, 15, 22)
	const firstShift = 63 - selectDigitBits
	for name, w := range inputs {
		order := magnitudeOrder(w)
		dim := len(w)
		for _, k := range []int{1, 2, dim / 10, dim / 2, dim} {
			if k < 1 {
				continue
			}
			want := math.Float64bits(w[order[k-1]]) &^ signBit
			wantTies, bucket := 0, 0
			for _, i := range order[:k] {
				if math.Float64bits(w[i])&^signBit == want {
					wantTies++
				}
			}
			for _, v := range w {
				if (math.Float64bits(v)&^signBit)>>firstShift == want>>firstShift {
					bucket++
				}
			}
			for _, c := range []int{0, 1, bucket - 1, bucket, k} {
				buf := make([]float64, c)
				for i := range buf {
					buf[i] = math.NaN()
				}
				got, ties := kthMagnitude(w, k, buf[:0])
				if got != want || ties != wantTies {
					t.Fatalf("%s k=%d cap(buf)=%d (bucket %d): t=%#x ties=%d, sort says t=%#x ties=%d",
						name, k, c, bucket, got, ties, want, wantTies)
				}
			}
		}
	}
}

func head(idx []int32) []int32 { return idx[:min(len(idx), 12)] }

// TestSparsifyAllocatesOnlyItsOutput holds the selection to its memory
// contract: no dim-sized scratch (the sort kept a 4·dim index
// permutation), just the 12·k bytes of index and value output, plus 2·k
// of steps when quantized.
func TestSparsifyAllocatesOnlyItsOutput(t *testing.T) {
	w := randVec(200_000, 5)
	const k = 20_000
	for _, width := range []int{0, 1} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, _, err := sparsify(w, k, width)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		// Large objects round up to whole 8 KiB pages; the rest is slack
		// for quantize's closures.
		budget := uint64(12*k+2*k*width) + 3*8192 + 4096
		if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
			t.Fatalf("width %d: %d bytes allocated, budget %d (4·dim would be %d)", width, got, budget, 4*len(w))
		}
		if cap(s.Idx) != k {
			t.Fatalf("width %d: index block over-allocated (cap %d)", width, cap(s.Idx))
		}
	}
}

func BenchmarkSparsify(b *testing.B) {
	for _, dim := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("dim1e%d", int(math.Round(math.Log10(float64(dim))))), func(b *testing.B) {
			w := randVec(dim, 42)
			b.SetBytes(int64(8 * dim))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sparsify(w, dim/10, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
