package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// poisoned fills d like awkward, plus a few NaNs and infinities, rare
// enough that many outputs stay finite.
func poisoned(rng *rand.Rand, d []float64) {
	awkward(rng, d)
	for i := range d {
		switch rng.Intn(256) {
		case 0:
			d[i] = math.NaN()
		case 1:
			d[i] = math.Inf(1)
		case 2:
			d[i] = math.Inf(-1)
		}
	}
}

// sameBits is equality of IEEE-754 bits, sign of zero included, with any
// NaN equal to any other: which NaN payload an instruction propagates
// depends on its operand order, which the two bodies need not share.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// kernelSweepCases covers, for k ∈ {1, 3, 5} under both paddings, output
// widths whose interior runs take every length from 1 to 16 (so every
// remainder mod 8 of the forward octs and mod 4 of the input-gradient
// quads, and runs too short for either), against odd and even input
// channel counts, outC ∈ {1, 4, 5, 32} and batch 1 and 3, on heights
// from one output row up, where the weight gradient's tap blocks have no
// rows in common.
func kernelSweepCases() []convCase {
	var out []convCase
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []padding{padValid, padSame} {
			p := 0
			if pad == padSame {
				p = (k - 1) / 2
			}
			for i := 0; i < 32; i++ {
				run := 1 + i%16 // ow − 2p for padSame, ow for padValid
				tc := convCase{
					k: k, pad: pad,
					inC:  []int{1, 2, 3, 4}[i%4],
					outC: []int{1, 4, 5, 32}[(i/4)%4],
					b:    []int{1, 3}[(i/16)%2],
					h:    k - 2*p + i%5,
					w:    run + k - 1,
				}
				if pad == padSame {
					tc.w = run + 2*p
				}
				if tc.fits() {
					out = append(out, tc)
				}
			}
		}
	}
	return out
}

// TestAVX2BodiesMatchGoBodies is the differential sweep between the two
// bodies of the micro-kernels: output, dW, db and dx of one layer on the
// AVX2 bodies equal, bit for bit, those of its twin on the Go bodies, on
// ordinary values and on inputs poisoned with NaN, ±Inf, ±0, subnormals
// and overflowing products, with non-zero gradient accumulators, over
// two passes.
func TestAVX2BodiesMatchGoBodies(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("this CPU has no AVX2")
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	cases := kernelSweepCases()
	// Interior run lengths mod 8 met by each kernel size and padding; 8
	// stands for a run long enough for the octs.
	runs := map[[2]int]map[int]bool{}
	finite, total := 0, 0
	for i, tc := range cases {
		p := tc.padPixels()
		kp := [2]int{tc.k, int(tc.pad)}
		if runs[kp] == nil {
			runs[kp] = map[int]bool{}
		}
		run := min(tc.w+2*p-tc.k+1, tc.w+p-tc.k+1) - p
		runs[kp][run%8] = true
		if run >= 8 {
			runs[kp][8] = true
		}

		fill := []func(*rand.Rand, []float64){plain, awkward, poisoned}[i%3]
		// Twin layers with equal parameters and gradient accumulators.
		rng := rand.New(rand.NewSource(int64(i)))
		goSide := newConv2D(tc.inC, tc.outC, tc.k, tc.pad, rng)
		avx := newConv2D(tc.inC, tc.outC, tc.k, tc.pad, rng)
		for _, ps := range [][2]*Param{{goSide.w, avx.w}, {goSide.b, avx.b}} {
			for _, d := range [][2][]float64{{ps[0].W.Data(), ps[1].W.Data()}, {ps[0].G.Data(), ps[1].G.Data()}} {
				fill(rng, d[0])
				copy(d[1], d[0])
			}
		}
		for pass := 0; pass < 2; pass++ {
			x, grad := tc.tensors(rng, fill)
			var res [2][4][]float64
			for s, side := range []*conv2D{goSide, avx} {
				useAVX2 = s == 1
				y, err := side.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				dx, err := side.Backward(grad)
				if err != nil {
					t.Fatal(err)
				}
				res[s] = [4][]float64{y.Data(), side.w.G.Data(), side.b.G.Data(), dx.Data()}
			}
			for j, name := range []string{"output", "dW", "db", "dx"} {
				if n := diffCount(res[1][j], res[0][j], sameBits); n != 0 {
					t.Fatalf("%v pass %d: %s: %d of %d elements differ between the bodies", tc, pass, name, n, len(res[0][j]))
				}
			}
			for _, v := range res[0][0] {
				if !math.IsInf(v, 0) && v == v {
					finite++
				}
			}
			total += len(res[0][0])
		}
	}
	t.Logf("%d cases, %d of %d outputs finite", len(cases), finite, total)
	if finite < total/4 {
		t.Fatalf("only %d of %d outputs finite: the poison swamps the sweep", finite, total)
	}
	if len(runs) != 6 {
		t.Fatalf("sweep covers %d kernel × padding pairs, want 6", len(runs))
	}
	for kp, rs := range runs {
		if len(rs) != 9 {
			t.Errorf("k=%d pad=%d: the sweep's interior runs cover only %v of the remainders mod 8 and a run of eight", kp[0], kp[1], rs)
		}
	}
}
