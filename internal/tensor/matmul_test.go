package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// forceParallelism pins the worker budget for a test and restores it.
func forceParallelism(t *testing.T, n int) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// refMatMul is a naive triple loop used as the ground truth for every
// kernel variant: each element one chain over p ascending, from +0.
func refMatMul(a, b *Tensor, transA, transB bool) *Tensor {
	// A[i][p] is a.data[i*ai+p*ap], B[p][j] is b.data[p*bp+j*bj].
	m, k, ai, ap := a.shape[0], a.shape[1], a.shape[1], 1
	if transA {
		k, m, ai, ap = a.shape[0], a.shape[1], 1, a.shape[1]
	}
	n, bp, bj := b.shape[1], b.shape[1], 1
	if transB {
		n, bp, bj = b.shape[0], 1, b.shape[1]
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.data[i*ai+p*ap] * b.data[p*bp+j*bj]
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

// matmulShapes covers both the small serial regime and the large
// parallel regime (conv-sized operands comfortably above parallelFlops),
// and widths that fill the kernels' four-wide blocks, leave a remainder,
// or are all remainder.
var matmulShapes = []struct{ m, k, n int }{
	{1, 7, 3},
	{3, 4, 5},
	{17, 31, 7},
	{64, 64, 64},
	{32, 900, 10},   // Dense(900→10)-sized, serial
	{32, 32, 900},   // Dense backward at batch 32, blocked
	{900, 288, 32},  // paper-CNN conv lowering, batch 1
	{1800, 64, 288}, // conv backward dcols slab
}

// firstBitDiff returns the first index at which got and want differ in
// their bits, or −1. Every NaN counts as equal to every other, and +0 as
// equal to −0: the kernels promise bits modulo the sign of zero. Two
// float64s that compare equal differ in bits only as ±0.
func firstBitDiff(got, want *Tensor) int {
	for i, v := range got.data {
		if w := want.data[i]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// poison plants non-finite values and exact zeros in matmul operands:
// about a third of z's entries become +0, and one entry each of f
// becomes +Inf, −Inf and NaN. A product 0·Inf is NaN, so a kernel that
// skips zero multiplicands disagrees with the reference here.
func poison(rng *rand.Rand, z, f *Tensor) {
	for i := range z.data {
		if rng.Intn(3) == 0 {
			z.data[i] = 0
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		f.data[rng.Intn(len(f.data))] = v
	}
}

// TestMatMulVariantsMatchReference requires every variant, on both
// bodies, to reproduce the naive triple loop's bits — each output
// element one ascending-p chain from +0 — at worker budgets 1 and 4, on
// finite operands and on operands with exact zeros against ±Inf and NaN.
func TestMatMulVariantsMatchReference(t *testing.T) {
	eachBody(t, testMatMulVariantsMatchReference)
}

func testMatMulVariantsMatchReference(t *testing.T) {
	forceParallelism(t, 1)
	check := func(par int, name string, s struct{ m, k, n int }, poisoned bool, got, want *Tensor) {
		t.Helper()
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("par=%d %s %v (poisoned %v): element %d is %v, reference %v", par, name, s, poisoned, i, got.data[i], want.data[i])
		}
	}
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(7))
		SetParallelism(par)
		for _, s := range matmulShapes {
			for _, poisoned := range []bool{false, true} {
				a := randMat(rng, s.m, s.k)
				b := randMat(rng, s.k, s.n)
				if poisoned {
					poison(rng, a, b)
				}
				got, err := MatMul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				check(par, "MatMul", s, poisoned, got, refMatMul(a, b, false, false))

				at := randMat(rng, s.k, s.m)
				if poisoned {
					poison(rng, at, b)
				}
				got, err = matMulTransA(at, b)
				if err != nil {
					t.Fatal(err)
				}
				check(par, "MatMulTransA", s, poisoned, got, refMatMul(at, b, true, false))

				bt := randMat(rng, s.n, s.k)
				if poisoned {
					poison(rng, a, bt)
				}
				got, err = MatMulTransB(a, bt)
				if err != nil {
					t.Fatal(err)
				}
				check(par, "MatMulTransB", s, poisoned, got, refMatMul(a, bt, false, true))
			}
		}
	}
}

// TestMatMulParallelBitIdentical asserts the determinism contract the
// parallel training engine relies on: on either body, any worker budget
// produces bit-for-bit identical products.
func TestMatMulParallelBitIdentical(t *testing.T) {
	eachBody(t, testMatMulParallelBitIdentical)
}

func testMatMulParallelBitIdentical(t *testing.T) {
	forceParallelism(t, 1)
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 700, 310)
	b := randMat(rng, 310, 130)
	at := randMat(rng, 310, 700)
	bt := randMat(rng, 130, 310)

	serial, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	serialTA, err := matMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	serialTB, err := MatMulTransB(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 8} {
		SetParallelism(par)
		p, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serial, p) {
			t.Fatalf("parallelism %d changed MatMul bits", par)
		}
		pTA, err := matMulTransA(at, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serialTA, pTA) {
			t.Fatalf("parallelism %d changed MatMulTransA bits", par)
		}
		pTB, err := MatMulTransB(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serialTB, pTB) {
			t.Fatalf("parallelism %d changed MatMulTransB bits", par)
		}
	}
}

func TestMatMulIntoReusesStaleBuffers(t *testing.T) {
	forceParallelism(t, 4)
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 120, 90)
	b := randMat(rng, 90, 110)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(120, 110)
	dst.Fill(123.456) // stale garbage must be overwritten
	if err := MatMulInto(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, want) {
		t.Fatal("MatMulInto with stale dst differs from MatMul")
	}

	bt := randMat(rng, 110, 90)
	wantTB, err := MatMulTransB(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	dst.Fill(-9)
	if err := MatMulTransBInto(dst, a, bt); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, wantTB) {
		t.Fatal("MatMulTransBInto with stale dst differs from MatMulTransB")
	}

	at := randMat(rng, 90, 120)
	wantTA, err := matMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	dst.Fill(7)
	if err := matMulTransAInto(dst, at, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, wantTA) {
		t.Fatal("MatMulTransAInto with stale dst differs from MatMulTransA")
	}
}

func TestMatMulTransAAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	at := randMat(rng, 40, 30)
	b := randMat(rng, 40, 20)
	prod, err := matMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(30, 20)
	acc.Fill(1)
	if err := MatMulTransAAcc(acc, at, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range acc.data {
		if diff := v - (prod.data[i] + 1); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("acc[%d] = %v, want %v", i, v, prod.data[i]+1)
		}
	}
}

func TestMatMulIntoShapeErrors(t *testing.T) {
	a, b := New(3, 4), New(4, 5)
	if err := MatMulInto(New(3, 6), a, b); err == nil {
		t.Fatal("bad dst accepted")
	}
	if err := matMulTransAInto(New(3, 5), a, b); err == nil {
		t.Fatal("bad transA dst accepted")
	}
	if err := MatMulTransBInto(New(3, 4), a, New(5, 4)); err == nil {
		t.Fatal("bad transB dst accepted")
	}
	if err := MatMulInto(New(3, 5), a, New(3, 5)); err == nil {
		t.Fatal("inner mismatch accepted")
	}
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := New(2, 3, 7, 6)
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	for _, pad := range []int{0, 1} {
		want, outH, outW, err := Im2Col(x, 3, 3, 1, pad)
		if err != nil {
			t.Fatal(err)
		}
		dst := New(want.shape[0], want.shape[1])
		dst.Fill(42) // padding zeros must be rewritten over stale data
		gotH, gotW, err := im2ColInto(dst, x, 3, 3, 1, pad)
		if err != nil {
			t.Fatal(err)
		}
		if gotH != outH || gotW != outW {
			t.Fatalf("pad=%d: out %dx%d, want %dx%d", pad, gotH, gotW, outH, outW)
		}
		if !Equal(dst, want) {
			t.Fatalf("pad=%d: Im2ColInto differs from Im2Col", pad)
		}

		wantImg, err := Col2Im(want, 2, 3, 7, 6, 3, 3, 1, pad)
		if err != nil {
			t.Fatal(err)
		}
		img := New(2, 3, 7, 6)
		img.Fill(-5)
		if err := col2ImInto(img, dst, 3, 3, 1, pad); err != nil {
			t.Fatal(err)
		}
		if !Equal(img, wantImg) {
			t.Fatalf("pad=%d: Col2ImInto differs from Col2Im", pad)
		}
	}
}

func TestScratchReuse(t *testing.T) {
	var s Scratch
	a := s.Get(4, 8)
	if a.Size() != 32 {
		t.Fatalf("size %d", a.Size())
	}
	a.Fill(3)
	if b := s.Get(4, 8); b != a {
		t.Fatal("same shape did not reuse the cached tensor")
	}
	// Smaller request re-slices the same backing array.
	c := s.Get(2, 8)
	if c.Size() != 16 {
		t.Fatalf("size %d", c.Size())
	}
	if &c.data[0] != &a.data[0] {
		t.Fatal("smaller shape did not reuse the backing array")
	}
	if c.data[0] != 3 {
		t.Fatal("scratch should not clear contents")
	}
	// Larger request allocates.
	d := s.Get(16, 16)
	if d.Size() != 256 {
		t.Fatalf("size %d", d.Size())
	}
}

func TestParallelRowsCoversAllRows(t *testing.T) {
	forceParallelism(t, 4)
	for _, rows := range []int{1, 2, 3, 7, 64, 1000} {
		hit := make([]int32, rows)
		ParallelRows(rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("rows=%d: row %d visited %d times", rows, i, h)
			}
		}
	}
}

// TestNestedFanOutStaysInBudget pins what a fan-out above the kernels
// (the trainer's clients, the recovery trials, the X-layer subgroups)
// relies on: an inner ParallelRows finds the tokens its caller holds
// taken, so however the two levels nest, no more bodies run at once than
// the budget allows.
func TestNestedFanOutStaysInBudget(t *testing.T) {
	const budget, outer, inner = 4, 8, 64
	forceParallelism(t, budget)
	var running, high atomic.Int32
	var hit [outer][inner]atomic.Int32
	ParallelRows(outer, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			ParallelRows(inner, func(lo, hi int) {
				now := running.Add(1)
				for peak := high.Load(); now > peak && !high.CompareAndSwap(peak, now); peak = high.Load() {
				}
				time.Sleep(100 * time.Microsecond) // hold the token long enough to overlap
				for i := lo; i < hi; i++ {
					hit[o][i].Add(1)
				}
				running.Add(-1)
			})
		}
	})
	if h := high.Load(); h > budget || h < 2 {
		t.Fatalf("%d inner bodies ran at once; want between 2 and the budget %d", h, budget)
	}
	for o := range hit {
		for i := range hit[o] {
			if n := hit[o][i].Load(); n != 1 {
				t.Fatalf("row (%d, %d) visited %d times", o, i, n)
			}
		}
	}
}

// TestLoweringMatchesPerElementReference pins the interior fast paths of
// im2ColInto and col2ImInto against the plain per-element definition —
// one bounds test per tap — over strides, rectangular kernels and
// paddings, including images too small to have an interior patch. Both
// are pure data movement in a fixed order, so the comparison is exact.
func TestLoweringMatchesPerElementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ b, c, h, w, kh, kw, stride, pad int }{
		{2, 3, 8, 8, 3, 3, 1, 1},
		{1, 2, 7, 9, 3, 3, 1, 0},
		{2, 1, 6, 5, 5, 5, 1, 2},
		{1, 3, 9, 8, 2, 4, 2, 1},
		{2, 2, 3, 3, 3, 3, 1, 1},
		{1, 1, 4, 4, 1, 1, 1, 0},
		{1, 2, 10, 7, 3, 2, 3, 2},
	} {
		x := New(tc.b, tc.c, tc.h, tc.w)
		for i := range x.data {
			x.data[i] = rng.NormFloat64()
		}
		outH, outW, rows, colw := im2ColShape(tc.b, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		want := New(rows, colw)
		cols := randMat(rng, rows, colw)
		wantImg := New(tc.b, tc.c, tc.h, tc.w)
		for bi := 0; bi < tc.b; bi++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					for ci := 0; ci < tc.c; ci++ {
						for ky := 0; ky < tc.kh; ky++ {
							for kx := 0; kx < tc.kw; kx++ {
								iy, ix := oy*tc.stride+ky-tc.pad, ox*tc.stride+kx-tc.pad
								if iy < 0 || iy >= tc.h || ix < 0 || ix >= tc.w {
									continue
								}
								col := (((bi*outH+oy)*outW+ox)*tc.c+ci)*tc.kh*tc.kw + ky*tc.kw + kx
								img := ((bi*tc.c+ci)*tc.h+iy)*tc.w + ix
								want.data[col] = x.data[img]
								wantImg.data[img] += cols.data[col]
							}
						}
					}
				}
			}
		}
		got := New(rows, colw)
		got.Fill(math.NaN()) // stale contents must be overwritten
		if _, _, err := im2ColInto(got, x, tc.kh, tc.kw, tc.stride, tc.pad); err != nil {
			t.Fatal(err)
		}
		gotImg := New(tc.b, tc.c, tc.h, tc.w)
		gotImg.Fill(math.NaN())
		if err := col2ImInto(gotImg, cols, tc.kh, tc.kw, tc.stride, tc.pad); err != nil {
			t.Fatal(err)
		}
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("%+v: im2col element %d = %v, want %v", tc, i, got.data[i], want.data[i])
			}
		}
		for i := range wantImg.data {
			if math.Float64bits(gotImg.data[i]) != math.Float64bits(wantImg.data[i]) {
				t.Fatalf("%+v: col2im element %d = %v, want %v", tc, i, gotImg.data[i], wantImg.data[i])
			}
		}
	}
}
