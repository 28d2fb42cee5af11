package tensor

import "fmt"

// Each matrix product has one kernel, run serially on small operands and
// fanned out across the package worker pool in row panels on large ones
// (≥ parallelFlops multiply-adds) when a worker is free. The kernels
// multiply every element, zeros included, so 0·Inf is NaN here as in the
// naive triple loop.
//
// Every kernel accumulates each output element in ascending order of
// the shared dimension, from +0, so any operand size and any worker
// count produce the naive loop's bits (modulo the sign of zero, which
// Go's float64 comparison ignores). The register blocking keeps that
// order: matMulTransBPanel runs four output columns as four independent
// chains, and the other two fold four rows of B into each sweep of a C
// row as c + a0·b0 + a1·b1 + a2·b2 + a3·b3, which Go evaluates left to
// right — ascending p.
//
// addRows and matMulTransBPanel have two bodies. The Go loops here are
// the portable one, and the reference the other is tested against. On
// amd64 CPUs with AVX2 (useAVX2), matmul_amd64.go and matmul_amd64.s run
// them four lanes at a time: addRows four consecutive columns of C as
// lanes, matMulTransBPanel four rows by eight columns of C per tile,
// four columns a vector, against rows of B transposed in registers. A
// lane does exactly what one scalar statement of the Go body does, in
// the same order — a multiply, then an add, never a fused multiply-add,
// which rounds once instead of twice — so both bodies give the same
// bits. Column and row remainders stay on the Go body. In training, nn's
// Dense layer is the only caller (forward, weight gradient and input
// gradient): convolutions have kernels of their own.

// hasAVX2 is the CPUID probe's verdict, read once.
var hasAVX2 = cpuAVX2()

// useAVX2 selects the AVX2 bodies of the kernels over the Go ones, the
// matmuls' and the stream bodies of the aggregation kernels (stream.go).
// It is set from the probe; only tests change it.
var useAVX2 = hasAVX2

// HasAVX2 reports whether this CPU runs AVX2 with the YMM state saved by
// the operating system: the one probe that picks the body of this
// package's matmul kernels and of nn's convolution kernels.
func HasAVX2() bool { return hasAVX2 }

// parallelFlops is the multiply-add count above which a matmul fans its
// rows out across the worker pool. Below it, fan-out overhead (token
// accounting, goroutine launch) exceeds the work.
const parallelFlops = 1 << 20

// kBlock tiles the shared dimension of matMulTransAPanel so the touched
// panel of B (kBlock·n floats) stays cache-resident while a row panel of
// A streams past it.
const kBlock = 256

// slabFloats is the size of the slab of B that matMulPanel sweeps every
// row of its panel of C over before it moves to the next: 32,768 floats,
// 256 KiB, which stays in L2. Its C rows are few (a batch) and are swept
// once per slab, so a smaller slab costs little, where a slab larger than
// L2 is re-read from memory once per row.
const slabFloats = 1 << 15

// kSlab is matMulPanel's slab height for n-wide rows of B: as many whole
// quads of rows as fit in slabFloats, and at least one quad, so addRows
// sweeps the same quads as it would over all of B.
func kSlab(n int) int {
	return max(4, (slabFloats/max(n, 1))&^3)
}

func checkMatMul(a, b *Tensor, kind string) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("%w: %s requires rank-2 operands, got %v and %v", errShape, kind, a.shape, b.shape)
	}
	return nil
}

func checkDst(dst *Tensor, m, n int, kind string) error {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: %s destination %v, want [%d %d]", errShape, kind, dst.shape, m, n)
	}
	return nil
}

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmul"); err != nil {
		return nil, err
	}
	c := New(a.shape[0], b.shape[1])
	if err := MatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulInto computes C = A·B into dst, which must be m×n. dst may hold
// stale data (it is overwritten) but must not alias a or b.
func MatMulInto(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmul"); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmul %v × %v", errShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmul"); err != nil {
		return err
	}
	if 2*m*k*n >= parallelFlops && spareWorker() {
		ParallelRows(m, func(lo, hi int) {
			matMulPanel(dst.data, a.data, b.data, lo, hi, k, n)
		})
		return nil
	}
	matMulPanel(dst.data, a.data, b.data, 0, m, k, n)
	return nil
}

// matMulPanel computes rows [lo, hi) of C = A·B with the shared
// dimension tiled in kSlab(n) slabs.
func matMulPanel(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		crow := c[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
	}
	kb := kSlab(n)
	for p0 := 0; p0 < k; p0 += kb {
		p1 := min(p0+kb, k)
		for i := lo; i < hi; i++ {
			addRows(c[i*n:(i+1)*n], a[i*k:], b, 1, p0, p1)
		}
	}
}

// addRows adds a[p·stride]·B[p] to crow for p in [p0, p1) ascending, B[p]
// being row p of b (len(crow) wide). Four rows share each sweep of crow
// and a remainder loop takes the rest, one row at a time. On the AVX2
// body the whole quads of columns go first, and the loops below take
// the columns from j0 on.
func addRows(crow, a, b []float64, stride, p0, p1 int) {
	n := len(crow)
	j0 := 0
	if useAVX2 {
		j0 = addRowsQuads(crow, a, b, stride, p0, p1)
	}
	cr := crow[j0:]
	p := p0
	for ; p+4 <= p1; p += 4 {
		a0, a1 := a[p*stride], a[(p+1)*stride]
		a2, a3 := a[(p+2)*stride], a[(p+3)*stride]
		b0 := b[p*n+j0 : (p+1)*n][:len(cr)]
		b1 := b[(p+1)*n+j0 : (p+2)*n][:len(cr)]
		b2 := b[(p+2)*n+j0 : (p+3)*n][:len(cr)]
		b3 := b[(p+3)*n+j0 : (p+4)*n][:len(cr)]
		for j, cv := range cr {
			cr[j] = cv + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; p < p1; p++ {
		av := a[p*stride]
		brow := b[p*n+j0 : (p+1)*n][:len(cr)]
		for j, bv := range brow {
			cr[j] += av * bv
		}
	}
}

// matMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n) without
// materializing the transpose.
func matMulTransA(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return nil, err
	}
	c := New(a.shape[1], b.shape[1])
	if err := MatMulTransAAcc(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// matMulTransAInto computes C = Aᵀ·B into dst (m×n), overwriting it.
func matMulTransAInto(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return err
	}
	if err := checkDst(dst, a.shape[1], b.shape[1], "matmulTransA"); err != nil {
		return err
	}
	dst.Zero()
	return MatMulTransAAcc(dst, a, b)
}

// MatMulTransAAcc accumulates C += Aᵀ·B into dst (m×n). This is the
// gradient-accumulation primitive: layers add weight gradients straight
// into the parameter's gradient tensor without a scratch product.
func MatMulTransAAcc(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return err
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmulTransA %v × %v", errShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmulTransA"); err != nil {
		return err
	}
	if 2*m*k*n >= parallelFlops && m > 1 && spareWorker() {
		ParallelRows(m, func(lo, hi int) {
			matMulTransAPanel(dst.data, a.data, b.data, lo, hi, k, m, n)
		})
		return nil
	}
	matMulTransAPanel(dst.data, a.data, b.data, 0, m, k, m, n)
	return nil
}

// matMulTransAPanel accumulates rows [lo, hi) of C += Aᵀ·B. Owning
// whole output rows keeps panels write-disjoint.
func matMulTransAPanel(c, a, b []float64, lo, hi, k, m, n int) {
	for p0 := 0; p0 < k; p0 += kBlock {
		p1 := min(p0+kBlock, k)
		for i := lo; i < hi; i++ {
			addRows(c[i*n:(i+1)*n], a[i:], b, m, p0, p1)
		}
	}
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k) without
// materializing the transpose.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmulTransB"); err != nil {
		return nil, err
	}
	c := New(a.shape[0], b.shape[0])
	if err := MatMulTransBInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulTransBInto computes C = A·Bᵀ into dst (m×n), overwriting it.
func MatMulTransBInto(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmulTransB"); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmulTransB %v × %v", errShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmulTransB"); err != nil {
		return err
	}
	if 2*m*k*n >= parallelFlops && spareWorker() {
		ParallelRows(m, func(lo, hi int) {
			matMulTransBPanel(dst.data, a.data, b.data, lo, hi, k, n)
		})
		return nil
	}
	matMulTransBPanel(dst.data, a.data, b.data, 0, m, k, n)
	return nil
}

// matMulTransBPanel computes rows [lo, hi) of C = A·Bᵀ as row-dot
// products, four output columns per pass over an A row; each output
// element is one sequential k-length reduction, so there is nothing to
// zero and nothing to tile. On the AVX2 body the tiles of four rows by
// eight columns go first, and the loops below take the columns from cols
// on in the tiled rows and every column of the rows after them.
func matMulTransBPanel(c, a, b []float64, lo, hi, k, n int) {
	tiled, cols := 0, 0
	if useAVX2 {
		tiled, cols = transBTiles(c, a, b, lo, hi, k, n)
	}
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		if i < lo+tiled {
			j = cols
		}
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k][:len(arow)]
			b1 := b[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k][:len(arow)]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
}
