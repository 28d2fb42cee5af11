package tensor

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// eachBody runs f as one subtest per body of the matmul kernels: "go",
// the portable Go loops, and "avx2", the AVX2 assembly, skipped where
// the CPU lacks it. It flips useAVX2 for the subtest and restores it
// after.
func eachBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, body := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(body.name, func(t *testing.T) {
			if body.avx2 && !hasAVX2 {
				t.Skip("this CPU has no AVX2")
			}
			defer func(saved bool) { useAVX2 = saved }(useAVX2)
			useAVX2 = body.avx2
			f(t)
		})
	}
}

// sameBits is equality of IEEE-754 bits, sign of zero included, with any
// NaN equal to any other: which NaN payload an instruction propagates
// depends on its operand order, which the two bodies need not share.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// awkwardMat returns an m×n matrix of normal deviates in which one entry
// in sixteen is ±0, one in 64 subnormal, one in 64 large enough for its
// products to overflow, and one in four thousand NaN, +Inf or −Inf: rare
// enough that most rows of a product stay finite. (Subnormal arithmetic
// is slow on both bodies, hence the small share.)
func awkwardMat(rng *rand.Rand, m, n int) *Tensor {
	t := randMat(rng, m, n)
	for i := range t.data {
		switch r := rng.Intn(4096); {
		case r < 256:
			t.data[i] = math.Copysign(0, float64(r%2)-0.5)
		case r < 320:
			t.data[i] = t.data[i] * 1e-310
		case r < 384:
			t.data[i] = t.data[i] * 1e160
		case r == 384:
			t.data[i] = math.NaN()
		case r == 385:
			t.data[i] = math.Inf(1)
		case r == 386:
			t.data[i] = math.Inf(-1)
		}
	}
	return t
}

// TestAVX2MatMulMatchesGo is the differential sweep between the two
// bodies of the matmul kernels: MatMulInto over a stale destination,
// MatMulTransAAcc (whose A is read with a stride) into a preloaded
// destination and MatMulTransBInto give, on the AVX2 body, the bits of
// the Go body, on operands with ±0, subnormals, overflowing products,
// NaN and ±Inf, at shapes that fill the AVX2 tiles, leave remainders or
// are all remainder, at worker budget 1 (every product inline) and again
// at 4 for the products large enough to fan out.
func TestAVX2MatMulMatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	forceParallelism(t, 1)
	finite, total, fanned := 0, 0, 0
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		rng := rand.New(rand.NewSource(int64(par)))
		for _, k := range []int{1, 3, 4, 5, 255, 256, 257, 900} {
			for _, n := range []int{1, 3, 4, 5, 10, 32, 900} {
				b, bt := awkwardMat(rng, k, n), awkwardMat(rng, n, k)
				for _, m := range []int{1, 3, 4, 5, 32} {
					if par > 1 {
						if 2*m*k*n < parallelFlops {
							continue // the same inline product as at par=1
						}
						fanned++
					}
					a, at := awkwardMat(rng, m, k), awkwardMat(rng, k, m)
					stale, acc := awkwardMat(rng, m, n), awkwardMat(rng, m, n)
					for _, v := range []struct {
						name string
						run  func(dst *Tensor) error
						dst  *Tensor
					}{
						{"MatMulInto", func(dst *Tensor) error { return MatMulInto(dst, a, b) }, stale},
						{"MatMulTransAAcc", func(dst *Tensor) error { return MatMulTransAAcc(dst, at, b) }, acc},
						{"MatMulTransBInto", func(dst *Tensor) error { return MatMulTransBInto(dst, a, bt) }, stale},
					} {
						var got [2]*Tensor
						for s := range got {
							useAVX2 = s == 1
							got[s] = v.dst.Clone()
							if err := v.run(got[s]); err != nil {
								t.Fatal(err)
							}
						}
						for i, g := range got[0].data {
							if w := got[1].data[i]; !sameBits(w, g) {
								t.Fatalf("par=%d %s m=%d k=%d n=%d: element %d is %v (%#x) on the AVX2 body, %v (%#x) on the Go body",
									par, v.name, m, k, n, i, w, math.Float64bits(w), g, math.Float64bits(g))
							}
							if !math.IsInf(g, 0) && g == g {
								finite++
							}
						}
						total += len(got[0].data)
					}
				}
			}
		}
	}
	t.Logf("%d of %d outputs finite; %d shapes fanned out", finite, total, fanned)
	if finite < total/4 {
		t.Fatalf("only %d of %d outputs finite: the poison swamps the sweep", finite, total)
	}
	if fanned == 0 {
		t.Fatal("no shape took the fan-out path")
	}
}

// TestAVX2ProbeMatchesCPUInfo holds the CPUID probe to the kernel's view
// of the CPU. A probe that wrongly said no would only make training slow,
// which no correctness test can see.
func TestAVX2ProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("reads /proc/cpuinfo of an amd64 Linux host")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, flags, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx2")
		if got := cpuAVX2(); got != want {
			t.Fatalf("CPUID probe says AVX2 = %v, /proc/cpuinfo says %v", got, want)
		}
		return
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("no flags line in /proc/cpuinfo")
}
