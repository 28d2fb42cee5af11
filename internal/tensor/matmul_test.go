package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// forceParallelism pins the worker budget for a test and restores it.
func forceParallelism(t *testing.T, n int) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// refMatMul is a naive triple loop used as the ground truth for every
// kernel variant.
func refMatMul(a, b *Tensor, transA, transB bool) *Tensor {
	var m, k, n int
	at := func(i, p int) float64 { return a.data[i*a.shape[1]+p] }
	bt := func(p, j int) float64 { return b.data[p*b.shape[1]+j] }
	if transA {
		k, m = a.shape[0], a.shape[1]
		at = func(i, p int) float64 { return a.data[p*a.shape[1]+i] }
	} else {
		m, k = a.shape[0], a.shape[1]
	}
	if transB {
		n = b.shape[0]
		bt = func(p, j int) float64 { return b.data[j*b.shape[1]+p] }
	} else {
		n = b.shape[1]
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

// shapes covers both the small serial regime and the large parallel
// regime (conv-sized operands comfortably above parallelFlops).
var matmulShapes = []struct{ m, k, n int }{
	{3, 4, 5},
	{17, 31, 7},
	{64, 64, 64},
	{900, 288, 32},  // paper-CNN conv lowering, batch 1
	{1800, 64, 288}, // conv backward dcols slab
}

func TestMatMulVariantsMatchReference(t *testing.T) {
	forceParallelism(t, 1)
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(7))
		SetParallelism(par)
		for _, s := range matmulShapes {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.k, s.n)
			got, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMatMul(a, b, false, false); !AllClose(got, want, 1e-9) {
				t.Fatalf("par=%d MatMul %v differs from reference", par, s)
			}

			at := randMat(rng, s.k, s.m)
			got, err = MatMulTransA(at, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMatMul(at, b, true, false); !AllClose(got, want, 1e-9) {
				t.Fatalf("par=%d MatMulTransA %v differs from reference", par, s)
			}

			bt := randMat(rng, s.n, s.k)
			got, err = MatMulTransB(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMatMul(a, bt, false, true); !AllClose(got, want, 1e-9) {
				t.Fatalf("par=%d MatMulTransB %v differs from reference", par, s)
			}
		}
	}
}

// TestMatMulParallelBitIdentical asserts the determinism contract the
// parallel training engine relies on: any worker budget produces
// bit-for-bit identical products.
func TestMatMulParallelBitIdentical(t *testing.T) {
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
	serialTA, err := MatMulTransA(at, b)
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
		pTA, err := MatMulTransA(at, b)
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
	wantTA, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	dst.Fill(7)
	if err := MatMulTransAInto(dst, at, b); err != nil {
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
	prod, err := MatMulTransA(at, b)
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
	if err := MatMulTransAInto(New(3, 5), a, b); err == nil {
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
		gotH, gotW, err := Im2ColInto(dst, x, 3, 3, 1, pad)
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
		if err := Col2ImInto(img, dst, 3, 3, 1, pad); err != nil {
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
		parallelRows(rows, func(lo, hi int) {
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

// TestLoweringMatchesPerElementReference pins the interior fast paths of
// Im2ColInto and Col2ImInto against the plain per-element definition —
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
		outH, outW, rows, colw := Im2ColShape(tc.b, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
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
		if _, _, err := Im2ColInto(got, x, tc.kh, tc.kw, tc.stride, tc.pad); err != nil {
			t.Fatal(err)
		}
		gotImg := New(tc.b, tc.c, tc.h, tc.w)
		gotImg.Fill(math.NaN())
		if err := Col2ImInto(gotImg, cols, tc.kh, tc.kw, tc.stride, tc.pad); err != nil {
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
