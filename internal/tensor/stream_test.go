package tensor

import (
	"fmt"
	"math"
	"math/rand"
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
// into dst: scale writes len(f) outputs, the others one.
var streamKernels = []struct {
	name string
	run  func(dst [][]float64, f []float64, terms [][]float64, stream bool)
}{
	{"scale", func(dst [][]float64, f []float64, terms [][]float64, stream bool) {
		scaleInto(dst, f, terms[0], stream)
	}},
	{"sum", func(dst [][]float64, _ []float64, terms [][]float64, stream bool) {
		sumInto(dst[0], terms, stream)
	}},
	{"scaledSum", func(dst [][]float64, f []float64, terms [][]float64, stream bool) {
		scaledSumInto(dst[0], terms, f[0], stream)
	}},
	{"weightedSum", func(dst [][]float64, f []float64, terms [][]float64, stream bool) {
		weightedSumInto(dst[0], f, terms, stream)
	}},
}

// TestStreamBodiesMatchGo is the differential sweep between the two
// bodies of the aggregation kernels: on inputs with NaN, ±Inf, ±0,
// subnormals and sums and products that overflow, every kernel's stream
// body writes the Go body's bits, for 1–7 terms (outputs, for scale), at
// every length from 0 to 17 and at the stream threshold ±1, into stale
// destinations whose first float sits 0–3 floats past a 32-byte boundary
// (each output of scale 1 further on than the one before it). One factor
// is ±0 — alternately — and its term all NaN, which the weighted sum must
// skip; scale and the scaled sum take it as it is.
func TestStreamBodiesMatchGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(1))
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range []int{streamMin - 1, streamMin, streamMin + 1} {
		if n > 17 {
			lengths = append(lengths, n)
		}
	}
	finite, total := 0, 0
	for _, n := range lengths {
		pool := make([][]float64, 7)
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
				for _, k := range streamKernels {
					var got [2][][]float64
					for s := range got {
						got[s] = make([][]float64, nt)
						for i := range got[s] {
							got[s][i] = alignedVec(n, (off+i)%4)
						}
						k.run(got[s], f, terms, s == 1)
					}
					outs := got[0]
					if k.name != "scale" {
						outs = outs[:1]
					}
					for i, g := range outs {
						for x, v := range g {
							if w := got[1][i][x]; !sameBits(w, v) {
								t.Fatalf("%s n=%d terms=%d offset=%d: output %d[%d] is %v (%#x) on the stream body, %v (%#x) on the Go body",
									k.name, n, nt, off, i, x, w, math.Float64bits(w), v, math.Float64bits(v))
							}
							if !math.IsInf(v, 0) && v == v {
								finite++
							}
						}
						total += len(g)
					}
				}
			}
		}
	}
	t.Logf("%d of %d outputs finite", finite, total)
	if finite < total/4 {
		t.Fatalf("only %d of %d outputs finite: the poison swamps the sweep", finite, total)
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

// BenchmarkStreamKernels runs each kernel the aggregation round calls at every
// streamBenchLens length on the Go body ("cached") and, with AVX2, the
// stream body, on normal deviates (a subnormal operand makes a multiply
// take a microcode assist on some CPUs, which would swamp the memory
// traffic), with the term counts of the round benchmark's agg_mem
// workload: three shares, three subtotal terms, three subtotals, five
// subgroup models. Each call is followed by one read of its outputs, as
// the round's next step (a share's send, a subtotal's encoding) reads
// them: a streamed output comes back from memory for it, where a cached
// one may still be in L2. It reports the bytes of one pass over each
// input and output per call as MB/s.
func BenchmarkStreamKernels(b *testing.B) {
	for _, k := range streamKernels {
		nt := 3
		if k.name == "weightedSum" {
			nt = 5
		}
		for _, n := range streamBenchLens {
			rng := rand.New(rand.NewSource(1))
			terms := make([][]float64, nt)
			for i := range terms {
				terms[i] = make([]float64, n)
				for x := range terms[i] {
					terms[i][x] = rng.NormFloat64()
				}
			}
			f := []float64{0.2, 0.3, 0.5, 0.25, 0.75}[:nt]
			outs := 1
			if k.name == "scale" {
				outs, terms = nt, terms[:1]
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
				b.Run(fmt.Sprintf("%s/%d/%s", k.name, n, body), func(b *testing.B) {
					if stream && !hasAVX2 {
						b.Skip("this CPU has no AVX2")
					}
					b.SetBytes(int64(8 * n * (len(terms) + len(dst))))
					sink := 0.0
					for i := 0; i < b.N; i++ {
						k.run(dst, f, terms, stream)
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
