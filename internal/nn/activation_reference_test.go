package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The branchy loops relu and maxPool2D ran before they selected with bit
// masks, kept as the reference the layers must reproduce bit for bit.

func refReLU(xd []float64) (yd []float64, mask []bool) {
	yd, mask = make([]float64, len(xd)), make([]bool, len(xd))
	for i, v := range xd {
		if v > 0 {
			yd[i] = v
			mask[i] = true
		} else {
			yd[i] = 0
			mask[i] = false
		}
	}
	return yd, mask
}

func refReLUBackward(mask []bool, gd []float64) []float64 {
	dd := make([]float64, len(gd))
	for i, keep := range mask {
		if keep {
			dd[i] = gd[i]
		} else {
			dd[i] = 0
		}
	}
	return dd
}

func refMaxPool(xd []float64, b, c, h, w, p int) (od []float64, arg []int) {
	outH, outW := h/p, w/p
	od, arg = make([]float64, b*c*outH*outW), make([]int, b*c*outH*outW)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * h * w
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					bestIdx := base + oy*p*w + ox*p
					best := xd[bestIdx]
					for dy := 0; dy < p; dy++ {
						iy := oy*p + dy
						for dx := 0; dx < p; dx++ {
							ix := ox*p + dx
							idx := base + iy*w + ix
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					o := ((bi*c+ci)*outH+oy)*outW + ox
					od[o] = best
					arg[o] = bestIdx
				}
			}
		}
	}
	return od, arg
}

// edgeValues is a value set that is mostly edge cases: NaN, both zeros,
// both infinities, the smallest subnormals, and few enough ordinary
// values that a pooling window often holds tied maxima.
var edgeValues = []float64{
	math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	1, 1, -1, 2.5, math.MaxFloat64,
}

func edgeTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i, d := 0, x.Data(); i < len(d); i++ {
		if rng.Intn(4) == 0 {
			d[i] = rng.NormFloat64()
		} else {
			d[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return x
}

// firstBitDiff returns the first index at which got and want differ in
// their IEEE-754 bits (NaN payloads and the sign of zero included), or −1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func TestReLUMatchesBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := newReLU()
	for trial := 0; trial < 20; trial++ {
		x := edgeTensor(rng, 3, 1+rng.Intn(70))
		y, err := r.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		wantY, wantMask := refReLU(x.Data())
		if i := firstBitDiff(y.Data(), wantY); i >= 0 {
			t.Fatalf("trial %d: ReLU(%v) = %v, reference %v", trial, x.Data()[i], y.Data()[i], wantY[i])
		}
		for i, keep := range wantMask {
			if r.mask[i] != keep {
				t.Fatalf("trial %d: mask of %v is %v, reference %v", trial, x.Data()[i], r.mask[i], keep)
			}
		}
		g := edgeTensor(rng, x.Shape()...)
		dx, err := r.Backward(g)
		if err != nil {
			t.Fatal(err)
		}
		wantDX := refReLUBackward(wantMask, g.Data())
		if i := firstBitDiff(dx.Data(), wantDX); i >= 0 {
			t.Fatalf("trial %d: gradient %v through mask %v = %v, reference %v", trial, g.Data()[i], wantMask[i], dx.Data()[i], wantDX[i])
		}
	}
}

func TestMaxPoolMatchesBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(name string, x *tensor.Tensor, p int) {
		t.Helper()
		m := newMaxPool2D(p)
		y, err := m.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		s := x.Shape()
		wantY, wantArg := refMaxPool(x.Data(), s[0], s[1], s[2], s[3], p)
		if i := firstBitDiff(y.Data(), wantY); i >= 0 {
			t.Fatalf("%s: output %d is %v, reference %v", name, i, y.Data()[i], wantY[i])
		}
		for i, a := range wantArg {
			if m.lastArg[i] != a {
				t.Fatalf("%s: argmax of output %d is %d, reference %d", name, i, m.lastArg[i], a)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		p := 2 + trial%2
		// Odd sides leave a trailing row and column outside every window.
		h, w := p+rng.Intn(7), p+rng.Intn(9)
		check("edge values", edgeTensor(rng, 2, 3, h, w), p)
	}
	// TestMaxPoolDivergedInput's windows, and one all-NaN window among
	// ordinary ones.
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		x := tensor.New(1, 1, 2, 2)
		x.Fill(v)
		check("diverged", x, 2)
	}
	x := edgeTensor(rng, 1, 2, 4, 6)
	for _, i := range []int{2, 3, 8, 9} {
		x.Data()[i] = math.NaN()
	}
	check("NaN window", x, 2)
}
