package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// alignedVec returns n floats, all stale, whose first sits off floats
// past a 32-byte boundary: where the stream body's scalar head has off
// floats fewer than a whole quad to peel (none for off 0).
func alignedVec(n, off int) []float64 {
	buf := make([]float64, n+8)
	lead := int((32-uintptr(unsafe.Pointer(&buf[0]))%32)%32) / 8
	v := buf[lead+off : lead+off+n : lead+off+n]
	for i := range v {
		v[i] = math.Pi
	}
	return v
}

// awkwardVec returns n normal deviates of which one in sixteen is ±0, one
// in 32 subnormal, one in 32 large enough that two of them overflow a sum
// or a product, and one in 64 each NaN, +Inf and −Inf.
func awkwardVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		switch r := rng.Intn(64); {
		case r < 4:
			v[i] = math.Copysign(0, float64(r%2)-0.5)
		case r < 6:
			v[i] *= 1e-310
		case r < 8:
			v[i] *= 1e308
		case r == 8:
			v[i] = math.NaN()
		case r == 9:
			v[i] = math.Inf(1)
		case r == 10:
			v[i] = math.Inf(-1)
		}
	}
	return v
}

// streamKernels runs each aggregation kernel on one body (stream or Go)
// into dst: scale writes len(f) outputs, the others one. The scaled sum
// takes its terms in the given groups, or each as a group of its own
// when groups is nil.
var streamKernels = []struct {
	name string
	run  func(dst [][]float64, f []float64, terms [][]float64, groups []int, stream bool)
}{
	{"scale", func(dst [][]float64, f []float64, terms [][]float64, _ []int, stream bool) {
		scaleInto(dst, f, terms[0], stream)
	}},
	{"sum", func(dst [][]float64, _ []float64, terms [][]float64, _ []int, stream bool) {
		sumInto(dst[0], terms, stream)
	}},
	{"scaledSum", func(dst [][]float64, f []float64, terms [][]float64, groups []int, stream bool) {
		if groups == nil {
			groups = make([]int, len(terms))
			for g := range groups {
				groups[g] = 1
			}
		}
		scaledSumInto(dst[0], terms, groups, f[0], stream)
	}},
	{"weightedSum", func(dst [][]float64, f []float64, terms [][]float64, _ []int, stream bool) {
		weightedSumInto(dst[0], f, terms, stream)
	}},
}

// streamLengths are the output lengths of the differential sweeps: 0 to
// 17, and the stream threshold ±1.
func streamLengths() []int {
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range []int{streamMin - 1, streamMin, streamMin + 1} {
		if n > 17 {
			lengths = append(lengths, n)
		}
	}
	return lengths
}

// bodiesAgree runs kernel k on both bodies into stale destinations
// whose first float sits off floats past a 32-byte boundary (each output
// of scale 1 further on than the one before it) and fails unless the
// stream body writes the Go body's bits. It returns how many outputs it
// compared and how many of them are finite.
func bodiesAgree(t *testing.T, k int, outs int, f []float64, terms [][]float64, groups []int, off int, what string) (finite, total int) {
	t.Helper()
	var got [2][][]float64
	for s := range got {
		got[s] = make([][]float64, outs)
		for i := range got[s] {
			got[s][i] = alignedVec(len(terms[0]), (off+i)%4)
		}
		streamKernels[k].run(got[s], f, terms, groups, s == 1)
	}
	if streamKernels[k].name != "scale" {
		outs = 1
	}
	for i, g := range got[0][:outs] {
		for x, v := range g {
			if w := got[1][i][x]; !sameBits(w, v) {
				t.Fatalf("%s %s: output %d[%d] is %v (%#x) on the stream body, %v (%#x) on the Go body",
					streamKernels[k].name, what, i, x, w, math.Float64bits(w), v, math.Float64bits(v))
			}
			if !math.IsInf(v, 0) && v == v {
				finite++
			}
		}
		total += len(g)
	}
	return finite, total
}

// TestStreamBodiesMatchGo is the differential sweep between the two
// bodies of the aggregation kernels: on inputs with NaN, ±Inf, ±0,
// subnormals and sums and products that overflow, every kernel's stream
// body writes the Go body's bits at every streamLengths length into
// stale destinations 0–3 floats past a 32-byte boundary. First every
// kernel takes 1–7 terms (outputs, for scale; one-term groups, for the
// scaled sum). One factor is ±0 — alternately — and its term all NaN,
// which the weighted sum must skip; scale and the scaled sum take it as
// it is. Then the scaled sum takes 1–4 groups of 1–4 terms — every shape
// at the short lengths, agg_mem's leader shape and eight drawn ones at
// the threshold — with, at one offset in four, one group all −0.
func TestStreamBodiesMatchGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(1))
	finite, total := 0, 0
	tally := func(f, n int) { finite, total = finite+f, total+n }
	const scaledSum = 2
	for _, n := range streamLengths() {
		pool := make([][]float64, 16)
		for i := range pool {
			pool[i] = awkwardVec(rng, n+3)
		}
		for nt := 1; nt <= 7; nt++ {
			f := awkwardVec(rng, nt)
			for i := range f {
				f[i] = math.Abs(f[i]) / 3
			}
			zero := rng.Intn(nt)
			f[zero] = math.Copysign(0, float64(nt%2)-0.5)
			for off := 0; off < 4; off++ {
				terms := make([][]float64, nt)
				for i := range terms {
					terms[i] = pool[i][(i+off)%4:][:n]
				}
				if nt > 1 {
					terms[zero] = make([]float64, n)
					for x := range terms[zero] {
						terms[zero][x] = math.NaN()
					}
				}
				for k := range streamKernels {
					tally(bodiesAgree(t, k, nt, f, terms, nil, off, fmt.Sprintf("n=%d terms=%d offset=%d", n, nt, off)))
				}
			}
		}
		negZero := make([]float64, n)
		for x := range negZero {
			negZero[x] = math.Copysign(0, -1)
		}
		var shapes [][]int
		if n <= 17 {
			shapes = groupShapes()
		} else {
			shapes = [][]int{{3, 3, 1}}
			for range 8 {
				shape := make([]int, 1+rng.Intn(4))
				for g := range shape {
					shape[g] = 1 + rng.Intn(4)
				}
				shapes = append(shapes, shape)
			}
		}
		for i, groups := range shapes {
			s := math.Abs(rng.NormFloat64()) / 3
			for off := 0; off < 4; off++ {
				var terms [][]float64
				for g, m := range groups {
					for range m {
						v := pool[len(terms)][(len(terms)+off)%4:][:n]
						if off == 3 && g == i%len(groups) {
							v = negZero
						}
						terms = append(terms, v)
					}
				}
				tally(bodiesAgree(t, scaledSum, 1, []float64{s}, terms, groups, off, fmt.Sprintf("n=%d groups=%v offset=%d", n, groups, off)))
			}
		}
	}
	t.Logf("%d of %d outputs finite", finite, total)
	if finite < total/4 {
		t.Fatalf("only %d of %d outputs finite: the poison swamps the sweep", finite, total)
	}
}

// groupShapes returns every list of 1–4 group sizes of 1–4 terms each.
func groupShapes() (shapes [][]int) {
	var grow func(shape []int)
	grow = func(shape []int) {
		for m := 1; m <= 4; m++ {
			next := append(slices.Clone(shape), m)
			shapes = append(shapes, next)
			if len(next) < 4 {
				grow(next)
			}
		}
	}
	grow(nil)
	return shapes
}

// TestScaledSumGroupsAddAsWholes pins the grouped sum's order on the Go
// body, which TestStreamBodiesMatchGo holds the stream body to: a group
// is summed from +0 and then added, so (r + (a + b)) and not ((r + a) +
// b), a lone −0 group adds +0, and no groups at all scale +0.
func TestScaledSumGroupsAddAsWholes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		terms  []float64
		groups []int
		want   float64
	}{
		{[]float64{1, 1e16, -1e16}, []int{1, 2}, 1},
		{[]float64{1, 1e16, -1e16}, []int{1, 1, 1}, 0},
		{[]float64{1e16, 1, -1e16}, []int{2, 1}, 0},
		{[]float64{negZero, negZero}, []int{2}, 0},
		{[]float64{negZero}, []int{1}, 0},
		{nil, nil, 0},
		{[]float64{2}, []int{0, 1, 0}, 2},
	} {
		terms := make([][]float64, len(tc.terms))
		for i, v := range tc.terms {
			terms[i] = []float64{v}
		}
		dst := []float64{math.NaN()}
		ScaledSumInto(dst, terms, tc.groups, 1)
		if math.Float64bits(dst[0]) != math.Float64bits(tc.want) {
			t.Errorf("terms %v in groups %v sum to %v, want %v", tc.terms, tc.groups, dst[0], tc.want)
		}
	}
}

// TestStreamsFromTheThreshold: the exported kernels take the stream body
// from streamMin floats of output on, and only with AVX2 on.
func TestStreamsFromTheThreshold(t *testing.T) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = hasAVX2
	if streams(streamMin - 1) {
		t.Fatalf("streams(%d) = true below the threshold", streamMin-1)
	}
	if got := streams(streamMin); got != hasAVX2 {
		t.Fatalf("streams(%d) = %v with AVX2 %v", streamMin, got, hasAVX2)
	}
	useAVX2 = false
	if streams(streamMin) {
		t.Fatal("streams is true on the Go bodies")
	}
}

// streamBenchLens are the output lengths the kernel benchmarks run at:
// the train workload's TinyCNN (29,422 weights), the stream threshold,
// and half and all of the round benchmark's 1.25M-weight model.
var streamBenchLens = []int{29422, streamMin, 625429, 1250858}

// streamBenchRows are the kernel calls of the round benchmark's agg_mem
// workload: three shares, three subtotal terms, three subtotals, a
// subgroup leader's average — its two subtotals of three shares each
// summed inside it, plus the one it was sent — and five subgroup models.
var streamBenchRows = []struct {
	name   string
	kernel int // index into streamKernels
	terms  int
	groups []int
}{
	{"scale", 0, 3, nil},
	{"sum", 1, 3, nil},
	{"scaledSum", 2, 3, nil},
	{"finish", 2, 7, []int{3, 3, 1}},
	{"weightedSum", 3, 5, nil},
}

// BenchmarkStreamKernels runs each streamBenchRows call at every
// streamBenchLens length on the Go body ("cached") and, with AVX2, the
// stream body, on normal deviates (a subnormal operand makes a multiply
// take a microcode assist on some CPUs, which would swamp the memory
// traffic). Each call is followed by one read of its outputs, as the
// round's next step (a share's send, a subtotal's encoding) reads them:
// a streamed output comes back from memory for it, where a cached one
// may still be in L2. It reports the bytes of one pass over each input
// and output per call as MB/s.
func BenchmarkStreamKernels(b *testing.B) {
	for _, row := range streamBenchRows {
		k := streamKernels[row.kernel]
		for _, n := range streamBenchLens {
			rng := rand.New(rand.NewSource(1))
			terms := make([][]float64, row.terms)
			for i := range terms {
				terms[i] = make([]float64, n)
				for x := range terms[i] {
					terms[i][x] = rng.NormFloat64()
				}
			}
			f := []float64{0.2, 0.3, 0.5, 0.25, 0.75}[:min(row.terms, 5)]
			outs := 1
			if k.name == "scale" {
				outs, terms = row.terms, terms[:1]
			}
			dst := make([][]float64, outs)
			for i := range dst {
				dst[i] = make([]float64, n)
			}
			for _, stream := range []bool{false, true} {
				body := "cached"
				if stream {
					body = "stream"
				}
				b.Run(fmt.Sprintf("%s/%d/%s", row.name, n, body), func(b *testing.B) {
					if stream && !hasAVX2 {
						b.Skip("this CPU has no AVX2")
					}
					b.SetBytes(int64(8 * n * (len(terms) + len(dst))))
					sink := 0.0
					for i := 0; i < b.N; i++ {
						k.run(dst, f, terms, row.groups, stream)
						for _, d := range dst {
							for _, v := range d {
								sink += v
							}
						}
					}
					benchSink = sink
				})
			}
		}
	}
}

// benchSink keeps the benchmark's reads of the outputs live.
var benchSink float64
