package tensor

import "fmt"

// Matrix multiplication comes in two kernel families, selected by
// operand size:
//
//   - Small operands (< parallelFlops multiply-adds) use the original
//     single-threaded ikj kernels. These keep the av == 0 skip: the
//     small regime is dominated by the aggregation protocols' vectors
//     and test fixtures, where sparse rows (zero-padded shares, one-hot
//     fixtures) are common enough that the branch pays for itself.
//   - Large operands use blocked row-panel kernels fanned out across
//     the package worker pool. Here the operands are dense layer
//     activations and gradients, where a zero test on every element
//     is a mispredicted branch per multiply, not a win — the blocked
//     kernels have no skip.
//
// Every kernel accumulates each output element in ascending order of
// the shared dimension, so the two families and any worker count
// produce bit-identical results (modulo the sign of zero, which Go's
// float64 comparison ignores).

// parallelFlops is the multiply-add count above which a matmul switches
// to the blocked parallel kernels. Below it, fan-out overhead (token
// accounting, goroutine launch) exceeds the work.
const parallelFlops = 1 << 20

// kBlock tiles the shared dimension of the blocked kernels so the
// touched panel of B (kBlock·n floats) stays cache-resident while a row
// panel of A streams past it.
const kBlock = 256

func checkMatMul(a, b *Tensor, kind string) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("%w: %s requires rank-2 operands, got %v and %v", ErrShape, kind, a.shape, b.shape)
	}
	return nil
}

func checkDst(dst *Tensor, m, n int, kind string) error {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: %s destination %v, want [%d %d]", ErrShape, kind, dst.shape, m, n)
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
		return fmt.Errorf("%w: matmul %v × %v", ErrShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmul"); err != nil {
		return err
	}
	if 2*m*k*n >= parallelFlops {
		ParallelRows(m, func(lo, hi int) {
			matMulPanel(dst.data, a.data, b.data, lo, hi, k, n)
		})
		return nil
	}
	// ikj loop order keeps the inner loops sequential over both B and C
	// rows.
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := dst.data[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return nil
}

// matMulPanel computes rows [lo, hi) of C = A·B with the shared
// dimension tiled in kBlock slabs.
func matMulPanel(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		crow := c[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += kBlock {
		p1 := p0 + kBlock
		if p1 > k {
			p1 = k
		}
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			for p := p0; p < p1; p++ {
				av := arow[p]
				brow := b[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n) without
// materializing the transpose.
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return nil, err
	}
	c := New(a.shape[1], b.shape[1])
	if err := MatMulTransAAcc(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulTransAInto computes C = Aᵀ·B into dst (m×n), overwriting it.
func MatMulTransAInto(dst, a, b *Tensor) error {
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
		return fmt.Errorf("%w: matmulTransA %v × %v", ErrShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmulTransA"); err != nil {
		return err
	}
	if 2*m*k*n >= parallelFlops && m > 1 {
		ParallelRows(m, func(lo, hi int) {
			matMulTransAPanel(dst.data, a.data, b.data, lo, hi, k, m, n)
		})
		return nil
	}
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := dst.data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return nil
}

// matMulTransAPanel accumulates rows [lo, hi) of C += Aᵀ·B. Owning
// whole output rows keeps panels write-disjoint; accumulation stays in
// ascending p order per element, matching the serial kernel bit for bit.
func matMulTransAPanel(c, a, b []float64, lo, hi, k, m, n int) {
	for p0 := 0; p0 < k; p0 += kBlock {
		p1 := p0 + kBlock
		if p1 > k {
			p1 = k
		}
		for i := lo; i < hi; i++ {
			crow := c[i*n : (i+1)*n]
			for p := p0; p < p1; p++ {
				av := a[p*m+i]
				brow := b[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
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
		return fmt.Errorf("%w: matmulTransB %v × %v", ErrShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmulTransB"); err != nil {
		return err
	}
	if 2*m*k*n >= parallelFlops {
		ParallelRows(m, func(lo, hi int) {
			matMulTransBPanel(dst.data, a.data, b.data, lo, hi, k, n)
		})
		return nil
	}
	matMulTransBPanel(dst.data, a.data, b.data, 0, m, k, n)
	return nil
}

// matMulTransBPanel computes rows [lo, hi) of C = A·Bᵀ as row-dot
// products; each output element is one sequential k-length reduction,
// so there is nothing to zero and nothing to tile.
func matMulTransBPanel(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
}
