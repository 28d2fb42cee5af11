package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// convCase is one shape of the direct-vs-oracle comparison.
type convCase struct {
	k          int
	pad        padding
	inC, outC  int
	b, h, w    int
	noInputGrd bool
}

func (tc convCase) String() string {
	return fmt.Sprintf("k%d/pad%d/%d→%d/b%d/%dx%d", tc.k, tc.pad, tc.inC, tc.outC, tc.b, tc.h, tc.w)
}

func (tc convCase) padPixels() int {
	if tc.pad == padSame {
		return (tc.k - 1) / 2
	}
	return 0
}

// fits reports whether the kernel fits the (padded) image at all.
func (tc convCase) fits() bool {
	p := tc.padPixels()
	return tc.h+2*p >= tc.k && tc.w+2*p >= tc.k
}

// awkward fills d with a mix of ordinary values and the ones a summation
// order or a skipped term can trip over: ±0, subnormals, and magnitudes
// whose products overflow.
func awkward(rng *rand.Rand, d []float64) {
	for i := range d {
		switch rng.Intn(12) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		case 2:
			d[i] = math.Float64frombits(uint64(1 + rng.Intn(1<<20))) // subnormal
		case 3:
			d[i] = math.Copysign(1e160, rng.Float64()-0.5) * rng.Float64()
		default:
			d[i] = rng.NormFloat64()
		}
	}
}

func plain(rng *rand.Rand, d []float64) {
	for i := range d {
		d[i] = rng.NormFloat64()
	}
}

// same is float equality modulo the sign of zero, with NaN equal to NaN:
// the contract between the direct kernels and the oracle.
func same(a, b float64) bool { return a == b || (a != a && b != b) }

func diffCount(a, b []float64, eq func(x, y float64) bool) int {
	if len(a) != len(b) {
		return -1
	}
	n := 0
	for i := range a {
		if !eq(a[i], b[i]) {
			n++
		}
	}
	return n
}

// convPair is a conv2D and its oracle with equal but separate parameters
// and gradient accumulators.
type convPair struct {
	direct *conv2D
	oracle *loweredConv2D
}

func newConvPair(tc convCase, rng *rand.Rand, fill func(*rand.Rand, []float64)) convPair {
	c := newConv2D(tc.inC, tc.outC, tc.k, tc.pad, rng)
	c.noInputGrad = tc.noInputGrd
	fill(rng, c.w.W.Data())
	fill(rng, c.b.W.Data())
	// Gradients accumulate on top of what G already holds.
	fill(rng, c.w.G.Data())
	fill(rng, c.b.G.Data())
	o := lowered(c)
	o.w = &Param{W: c.w.W.Clone(), G: c.w.G.Clone()}
	o.b = &Param{W: c.b.W.Clone(), G: c.b.G.Clone()}
	return convPair{c, o}
}

// step runs forward and backward on both sides and returns a description
// of the first tensor that differs under eq, or "".
func (p convPair) step(x, grad *tensor.Tensor, eq func(x, y float64) bool) string {
	got, err := p.direct.Forward(x, true)
	if err != nil {
		return err.Error()
	}
	want, err := p.oracle.Forward(x, true)
	if err != nil {
		return err.Error()
	}
	if n := diffCount(got.Data(), want.Data(), eq); n != 0 {
		return fmt.Sprintf("output: %d of %d elements differ", n, want.Size())
	}
	gotDX, err := p.direct.Backward(grad)
	if err != nil {
		return err.Error()
	}
	wantDX, err := p.oracle.Backward(grad)
	if err != nil {
		return err.Error()
	}
	if n := diffCount(p.direct.w.G.Data(), p.oracle.w.G.Data(), eq); n != 0 {
		return fmt.Sprintf("dW: %d of %d elements differ", n, p.oracle.w.G.Size())
	}
	if n := diffCount(p.direct.b.G.Data(), p.oracle.b.G.Data(), eq); n != 0 {
		return fmt.Sprintf("db: %d of %d elements differ", n, p.oracle.b.G.Size())
	}
	if p.direct.noInputGrad {
		if gotDX != nil {
			return "dx: computed although nobody reads it"
		}
		return ""
	}
	if n := diffCount(gotDX.Data(), wantDX.Data(), eq); n != 0 {
		return fmt.Sprintf("dx: %d of %d elements differ", n, wantDX.Size())
	}
	return ""
}

func (tc convCase) tensors(rng *rand.Rand, fill func(*rand.Rand, []float64)) (x, grad *tensor.Tensor) {
	p := tc.padPixels()
	x = tensor.New(tc.b, tc.inC, tc.h, tc.w)
	grad = tensor.New(tc.b, tc.outC, tc.h+2*p-tc.k+1, tc.w+2*p-tc.k+1)
	fill(rng, x.Data())
	fill(rng, grad.Data())
	return x, grad
}

// sweepSides are the image sides of the sweep; with k = 5 the small ones
// have no interior pixel at all, and the pairs make most images
// non-square.
var sweepSides = []int{4, 5, 6, 7, 8, 9, 10, 11, 12}

// sweepCases enumerates kernel × padding × channel counts × batch, each
// on two image shapes that rotate through sweepSides (one for the 32→32
// layers, which cost the race detector the most).
func sweepCases() []convCase {
	var out []convCase
	n := 0
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []padding{padValid, padSame} {
			for _, inC := range []int{1, 3, 4, 5, 32} {
				for _, outC := range []int{1, 3, 4, 5, 32} {
					for _, b := range []int{1, 3} {
						for rep := 0; rep < 2; rep++ {
							h := sweepSides[n%len(sweepSides)]
							w := sweepSides[(n/2+3*rep)%len(sweepSides)]
							n++
							if rep == 1 && inC*outC >= 1024 {
								continue
							}
							tc := convCase{k: k, pad: pad, inC: inC, outC: outC, b: b, h: h, w: w}
							if tc.fits() {
								out = append(out, tc)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestConvDirectMatchesOracle is the differential sweep: output, dW, db
// and dx of the direct kernels equal the im2col + MatMul oracle on every
// shape, on ordinary and on awkward values, with non-zero gradient
// accumulators, and again on a second pass through the same layers — on
// both bodies of the micro-kernels.
func TestConvDirectMatchesOracle(t *testing.T) {
	EachConvBody(t, testConvDirectMatchesOracle)
}

func testConvDirectMatchesOracle(t *testing.T) {
	cases := sweepCases()
	sides := map[int]bool{}
	for i, tc := range cases {
		sides[tc.h], sides[tc.w] = true, true
		rng := rand.New(rand.NewSource(int64(i)))
		fill := plain
		if i%2 == 1 {
			fill = awkward
		}
		p := newConvPair(tc, rng, fill)
		for pass := 0; pass < 2; pass++ {
			x, grad := tc.tensors(rng, fill)
			if d := p.step(x, grad, same); d != "" {
				t.Fatalf("%v pass %d: %s", tc, pass, d)
			}
		}
	}
	if len(sides) != len(sweepSides) {
		t.Fatalf("sweep covered sides %v, want all of %v", sides, sweepSides)
	}
}

// fanOutCases are large enough (≥ convFanOutMACs) to go through the
// worker pool, and cover odd channel counts and both paddings.
var fanOutCases = []convCase{
	{k: 3, pad: padSame, inC: 3, outC: 4, b: 6, h: 32, w: 32},
	{k: 3, pad: padValid, inC: 4, outC: 4, b: 6, h: 32, w: 32},
	{k: 3, pad: padValid, inC: 32, outC: 32, b: 3, h: 12, w: 10},
	{k: 5, pad: padSame, inC: 5, outC: 7, b: 5, h: 14, w: 17},
	{k: 3, pad: padSame, inC: 3, outC: 32, b: 1, h: 32, w: 32},
}

// TestConvParallelBitIdentical pins the fan-out: the same pass at worker
// budgets 1 and 4 produces the same bits, sign of zero included, and
// still equals the oracle, on both bodies of the micro-kernels.
func TestConvParallelBitIdentical(t *testing.T) {
	EachConvBody(t, testConvParallelBitIdentical)
}

func testConvParallelBitIdentical(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, tc := range fanOutCases {
		var ref *conv2D
		var refOut, refDX []float64
		for _, workers := range []int{1, 4} {
			tensor.SetParallelism(workers)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			p := newConvPair(tc, rng, awkward)
			x, grad := tc.tensors(rng, awkward)
			if d := p.step(x, grad, same); d != "" {
				t.Fatalf("%v at %d workers: %s", tc, workers, d)
			}
			if n := p.direct.geom.macs(); n < convFanOutMACs {
				t.Fatalf("%v: %d multiply-adds never fan out", tc, n)
			}
			if ref == nil {
				ref = p.direct
				refOut = append(refOut, p.direct.y...)
				refDX = append(refDX, p.direct.gradX...)
				continue
			}
			for name, pair := range map[string][2][]float64{
				"output": {p.direct.y, refOut},
				"dx":     {p.direct.gradX, refDX},
				"dW":     {p.direct.w.G.Data(), ref.w.G.Data()},
				"db":     {p.direct.b.G.Data(), ref.b.G.Data()},
			} {
				if n := diffCount(pair[0], pair[1], bits); n != 0 {
					t.Fatalf("%v: %s differs in %d elements between 1 and %d workers", tc, name, n, workers)
				}
			}
		}
	}
}

// FuzzConvDifferential lets the fuzzer pick the shape and the values.
func FuzzConvDifferential(f *testing.F) {
	f.Add(int64(1), uint8(3), true, uint8(3), uint8(4), uint8(2), uint8(8), uint8(8), false)
	f.Add(int64(2), uint8(5), true, uint8(1), uint8(5), uint8(1), uint8(4), uint8(4), true)
	f.Add(int64(3), uint8(1), false, uint8(4), uint8(1), uint8(3), uint8(5), uint8(9), true)
	f.Add(int64(4), uint8(3), false, uint8(5), uint8(9), uint8(2), uint8(3), uint8(11), false)
	f.Add(int64(5), uint8(4), true, uint8(2), uint8(2), uint8(1), uint8(6), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, k uint8, samePad bool, inC, outC, b, h, w uint8, odd bool) {
		tc := convCase{
			k: 1 + int(k)%6, pad: padValid,
			inC: 1 + int(inC)%9, outC: 1 + int(outC)%9,
			b: 1 + int(b)%3, h: 1 + int(h)%13, w: 1 + int(w)%13,
		}
		if samePad {
			tc.pad = padSame
		}
		// padSame with an even kernel pads (k−1)/2 on both sides and so
		// shrinks the image by one; the kernels take any k and p.
		if !tc.fits() {
			t.Skip()
		}
		fill := plain
		if odd {
			fill = awkward
		}
		rng := rand.New(rand.NewSource(seed))
		p := newConvPair(tc, rng, fill)
		for pass := 0; pass < 2; pass++ {
			x, grad := tc.tensors(rng, fill)
			if d := p.step(x, grad, same); d != "" {
				t.Fatalf("%v pass %d: %s", tc, pass, d)
			}
		}
	})
}

// TestConvNonFiniteBorder documents the one place the two sides part. The
// oracle multiplies a stored padding zero by the weight, so a non-finite
// weight turns every border output whose window hangs over the edge at
// that tap into NaN (0·Inf); the direct kernel skips the tap and keeps
// those outputs finite. Everything else agrees, and the layer's output is
// non-finite on both sides — the model has diverged either way.
func TestConvNonFiniteBorder(t *testing.T) {
	tc := convCase{k: 3, pad: padSame, inC: 2, outC: 3, b: 2, h: 5, w: 6}
	rng := rand.New(rand.NewSource(7))
	p := newConvPair(tc, rng, plain)
	for _, w := range [][]float64{p.direct.w.W.Data(), p.oracle.w.W.Data()} {
		w[0] = math.Inf(1)    // channel 0, corner tap: padded along the top and left edges
		w[2*9+8] = math.NaN() // channel 1, opposite corner
	}
	x, grad := tc.tensors(rng, plain)
	sameOrOracleNaN := func(direct, oracle float64) bool { return same(direct, oracle) || oracle != oracle }
	if d := p.step(x, grad, sameOrOracleNaN); d != "" {
		t.Fatal(d)
	}
	finite := 0
	for _, v := range p.direct.y {
		if !math.IsInf(v, 0) && v == v {
			finite++
		}
	}
	if finite == len(p.direct.y) || finite == 0 {
		t.Fatalf("%d of %d direct outputs finite; want the poisoned channels non-finite and channel 2 clean", finite, len(p.direct.y))
	}
}

// TestConvGradientsFiniteDifference checks all three gradients of a
// standalone layer against central differences of L = Σ out·r.
func TestConvGradientsFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newConv2D(3, 5, 3, padSame, rng)
	plain(rng, c.b.W.Data())
	x := randTensor(rng, 2, 3, 5, 6)
	r := randTensor(rng, 2, 5, 5, 6)
	loss := func() float64 {
		out, err := c.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i, v := range out.Data() {
			s += v * r.Data()[i]
		}
		return s
	}
	loss()
	dx, err := c.Backward(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		at, grad []float64
	}{
		{"dW", c.w.W.Data(), c.w.G.Data()},
		{"db", c.b.W.Data(), c.b.G.Data()},
		{"dx", x.Data(), append([]float64(nil), dx.Data()...)},
	} {
		for i := range tc.at {
			const h = 1e-5
			orig := tc.at[i]
			tc.at[i] = orig + h
			lp := loss()
			tc.at[i] = orig - h
			lm := loss()
			tc.at[i] = orig
			if want := (lp - lm) / (2 * h); math.Abs(tc.grad[i]-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v, numeric %v", tc.name, i, tc.grad[i], want)
			}
		}
	}
}

// TestFirstLayerSkipsInputGradient: newModel tells a leading convolution
// or dense layer that nobody reads its input gradient, and that layer
// then does none of the work — while the same layer type mid-stack or
// standalone still returns the oracle's dx.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	first := newConv2D(3, 4, 3, padSame, rng)
	second := newConv2D(4, 4, 3, padValid, rng)
	m := newModel(first, newReLU(), second, newFlatten(), newDense(4*6*6, 3, rng))
	x := randTensor(rng, 2, 3, 8, 8)
	if _, err := m.Loss(x, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Backward(); err != nil {
		t.Fatal(err)
	}
	if first.gradX != nil || first.rows != nil || first.zeros != nil {
		t.Fatal("layer 0 built an input gradient nobody reads")
	}
	if second.gradX == nil {
		t.Fatal("mid-stack convolution returned no input gradient")
	}
	// Still the right weight gradient on layer 0, and the right dx from
	// a convolution that is not a model's first layer.
	for _, skip := range []bool{true, false} {
		tc := convCase{k: 3, pad: padSame, inC: 3, outC: 4, b: 2, h: 8, w: 8, noInputGrd: skip}
		p := newConvPair(tc, rng, plain)
		xs, grad := tc.tensors(rng, plain)
		if d := p.step(xs, grad, same); d != "" {
			t.Fatalf("noInputGrad=%v: %s", skip, d)
		}
	}

	// An MLP's first layer returns no input gradient; its second layer
	// and a standalone one return grad·W.
	d0, d1 := newDense(6, 5, rng), newDense(5, 3, rng)
	mlp := newModel(d0, newReLU(), d1)
	if _, err := mlp.Loss(randTensor(rng, 2, 6), []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := mlp.Backward(); err != nil {
		t.Fatal(err)
	}
	for i, d := range []*dense{d0, d1, newDense(6, 5, rng)} {
		if _, err := d.Forward(randTensor(rng, 2, d.in), true); err != nil {
			t.Fatal(err)
		}
		grad := randTensor(rng, 2, d.out)
		dx, err := d.Backward(grad)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if dx != nil {
				t.Fatal("an MLP's first layer built an input gradient nobody reads")
			}
			continue
		}
		want, err := tensor.MatMul(grad, d.w.W)
		if err != nil {
			t.Fatal(err)
		}
		if dx == nil || !tensor.Equal(dx, want) {
			t.Fatalf("dense layer %d: input gradient %v, want grad·W", i, dx)
		}
	}
}

func TestConvBackwardBeforeForwardErrors(t *testing.T) {
	c := newConv2D(1, 1, 3, padSame, rand.New(rand.NewSource(1)))
	if _, err := c.Backward(tensor.New(1, 1, 4, 4)); err == nil {
		t.Fatal("Backward before Forward did not error")
	}
}

// TestConvSteadyStateAllocatesNothing: after the first pass sized the
// layer's workspaces, forward + backward allocate nothing when the pass
// runs on the caller's goroutine.
func TestConvSteadyStateAllocatesNothing(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	rng := rand.New(rand.NewSource(17))
	tc := fanOutCases[2]
	c := newConv2D(tc.inC, tc.outC, tc.k, tc.pad, rng)
	x, grad := tc.tensors(rng, plain)
	pass := func() {
		if _, err := c.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Backward(grad); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if n := testing.AllocsPerRun(3, pass); n != 0 {
		t.Fatalf("steady-state conv pass allocates %v times", n)
	}
}

// TestDenseSteadyStateAllocatesNothing: after the first pass sized its
// workspaces, a dense forward + backward allocates nothing on the
// caller's goroutine — the matmul kernels pack nothing per call — at
// TinyCNN's dense(900→32) at batch 32 and PaperCNN's dense(2304→512) at
// batch 8.
func TestDenseSteadyStateAllocatesNothing(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	rng := rand.New(rand.NewSource(19))
	for _, s := range []struct{ batch, in, out int }{{32, 900, 32}, {8, 2304, 512}} {
		d := newDense(s.in, s.out, rng)
		x, grad := randTensor(rng, s.batch, s.in), randTensor(rng, s.batch, s.out)
		pass := func() {
			if _, err := d.Forward(x, true); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Backward(grad); err != nil {
				t.Fatal(err)
			}
		}
		pass()
		if n := testing.AllocsPerRun(3, pass); n != 0 {
			t.Fatalf("steady-state %s pass at batch %d allocates %v times", d.Name(), s.batch, n)
		}
	}
}
