package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("size = %d, want 6", x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceShapeMismatch(t *testing.T) {
	if _, err := fromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("want shape error for 3 elements into 2x2")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major: offset of (1,2,3) is 1*12 + 2*4 + 3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatalf("row-major offset wrong: %v", x.Data())
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y, err := x.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	y.Set(99, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("reshape must share storage")
	}
	if _, err := x.Reshape(3); err == nil {
		t.Fatal("want error reshaping 4 elements to 3")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := MustFromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("clone must not share storage")
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Fatalf("sum = %v", x.Sum())
	}
	if got := x.Norm2(); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Fatalf("norm2 = %v", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want) {
		t.Fatalf("matmul = %v, want %v", c, want)
	}
}

func TestMatMulShapeError(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(2, 3)); err == nil {
		t.Fatal("want shape error for 2x3 · 2x3")
	}
	if _, err := MatMul(New(6), New(2, 3)); err == nil {
		t.Fatal("want rank error")
	}
}

func randMat(r *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.Data() {
		t.Data()[i] = r.NormFloat64()
	}
	return t
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		want, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		at, _ := transpose(a)
		got1, err := matMulTransA(at, b)
		if err != nil {
			t.Fatal(err)
		}
		if !AllClose(want, got1, 1e-12) {
			t.Fatalf("MatMulTransA disagrees at trial %d", trial)
		}
		bt, _ := transpose(b)
		got2, err := MatMulTransB(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		if !AllClose(want, got2, 1e-12) {
			t.Fatalf("MatMulTransB disagrees at trial %d", trial)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randMat(r, 3, 5)
	at, err := transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	att, _ := transpose(at)
	if !Equal(a, att) {
		t.Fatal("transpose twice must be identity")
	}
	if _, err := transpose(New(2, 2, 2)); err == nil {
		t.Fatal("want rank error")
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestMatMulDistributesOverAdd(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m, k, n := 1+rr.Intn(6), 1+rr.Intn(6), 1+rr.Intn(6)
		a, b, c := randMat(rr, m, k), randMat(rr, m, k), randMat(rr, k, n)
		ab := a.Clone()
		for i, v := range b.Data() {
			ab.Data()[i] += v
		}
		left, _ := MatMul(ab, c)
		right, _ := MatMul(a, c)
		bc, _ := MatMul(b, c)
		for i, v := range bc.Data() {
			right.Data()[i] += v
		}
		return AllClose(left, right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestApplyFill(t *testing.T) {
	x := MustFromSlice([]float64{1, 4, 9}, 3)
	x.Fill(7)
	if !Equal(x, MustFromSlice([]float64{7, 7, 7}, 3)) {
		t.Fatalf("fill = %v", x)
	}
	x.Zero()
	if !Equal(x, New(3)) {
		t.Fatalf("zero = %v", x)
	}
}

func TestAllCloseTolerance(t *testing.T) {
	a := MustFromSlice([]float64{1}, 1)
	b := MustFromSlice([]float64{1.0005}, 1)
	if !AllClose(a, b, 1e-3) {
		t.Fatal("want close at 1e-3")
	}
	if AllClose(a, b, 1e-6) {
		t.Fatal("want not close at 1e-6")
	}
	if AllClose(a, New(2), 1e9) != false {
		t.Fatal("different shapes are never close")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity layout.
	x := MustFromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	cols, oh, ow, err := Im2Col(x, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims = %d,%d", oh, ow)
	}
	if !Equal(cols, MustFromSlice([]float64{1, 2, 3, 4}, 4, 1)) {
		t.Fatalf("cols = %v", cols)
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 3x3 image, 2x2 kernel, stride 1, no pad → 4 patches.
	x := MustFromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cols, oh, ow, err := Im2Col(x, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims = %d,%d", oh, ow)
	}
	want := MustFromSlice([]float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 4, 4)
	if !Equal(cols, want) {
		t.Fatalf("cols = %v, want %v", cols, want)
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := MustFromSlice([]float64{5}, 1, 1, 1, 1)
	cols, oh, ow, err := Im2Col(x, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if oh != 1 || ow != 1 {
		t.Fatalf("out dims = %d,%d", oh, ow)
	}
	// Only the center of the 3x3 window hits the single pixel.
	if cols.Sum() != 5 || cols.At(0, 4) != 5 {
		t.Fatalf("cols = %v", cols)
	}
}

func TestIm2ColKernelTooLarge(t *testing.T) {
	x := New(1, 1, 2, 2)
	if _, _, _, err := Im2Col(x, 3, 3, 1, 0); err == nil {
		t.Fatal("want error for kernel larger than padded input")
	}
	if _, _, _, err := Im2Col(New(2, 2), 1, 1, 1, 0); err == nil {
		t.Fatal("want rank error")
	}
}

// Property: col2im(im2col(x)) with non-overlapping stride equals x.
func TestCol2ImInverseWhenNonOverlapping(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := New(2, 3, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	cols, _, _, err := Im2Col(x, 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Col2Im(cols, 2, 3, 4, 4, 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(x, back, 1e-12) {
		t.Fatal("col2im must invert im2col for non-overlapping patches")
	}
}

// Property: col2im of overlapping patches counts each pixel once per
// covering window (gradient accumulation semantics).
func TestCol2ImOverlapAccumulates(t *testing.T) {
	x := New(1, 1, 3, 3)
	x.Fill(1)
	cols, _, _, err := Im2Col(x, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Col2Im(cols, 1, 1, 3, 3, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Center pixel is covered by all 4 windows, corners by 1, edges by 2.
	want := MustFromSlice([]float64{
		1, 2, 1,
		2, 4, 2,
		1, 2, 1,
	}, 1, 1, 3, 3)
	if !Equal(back, want) {
		t.Fatalf("col2im = %v, want %v", back, want)
	}
}

func TestCol2ImShapeError(t *testing.T) {
	if _, err := Col2Im(New(3, 3), 1, 1, 3, 3, 2, 2, 1, 0); err == nil {
		t.Fatal("want shape error")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	x := randMat(r, 64, 64)
	y := randMat(r, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIm2Col28x28(b *testing.B) {
	x := New(8, 1, 28, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Im2Col(x, 3, 3, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
