package tensor

// The AVX2 bodies of matmul.go's kernels: the Go functions below check
// the slices and pass their pointers to the assembly of matmul_amd64.s.
// Each lane of a vector instruction does what one scalar statement of
// the Go body does, in the same order: VMULPD then VADDPD, never a fused
// multiply-add.

// addRowsQuads is addRows on the AVX2 body for the whole quads of
// crow's columns, four columns a vector, and returns how many columns it
// took.
func addRowsQuads(crow, a, b []float64, stride, p0, p1 int) int {
	n := len(crow)
	q := n &^ 3
	if q == 0 || p1 <= p0 {
		return 0
	}
	_, _ = a[(p1-1)*stride], b[(p1-1)*n+q-1]
	addRowsAVX2(&crow[0], q, &a[p0*stride], stride, &b[p0*n], n, p1-p0)
	return q
}

// transBTiles runs matMulTransBPanel's rows [lo, hi) on the AVX2 body in
// tiles of four rows by eight columns and returns how many rows (from
// lo) and columns (from 0) it took.
func transBTiles(c, a, b []float64, lo, hi, k, n int) (rows, cols int) {
	rows, cols = (hi-lo)&^3, n&^7
	if rows == 0 || cols == 0 || k == 0 {
		return 0, 0
	}
	_, _, _ = c[(lo+rows)*n-1], a[(lo+rows)*k-1], b[cols*k-1]
	for i := lo; i < lo+rows; i += 4 {
		for j := 0; j < cols; j += 8 {
			transBTileAVX2(&c[i*n+j], n, &a[i*k], &b[j*k], k)
		}
	}
	return rows, cols
}

// addRowsAVX2 adds a[p·aStride]·B[p] to c[0:q] for p in [0, np)
// ascending, B[p] being the q first floats of b's row p, rows n floats
// apart: c + a0·b0 + a1·b1 + a2·b2 + a3·b3 per sweep of four rows, then
// c + a·b per leftover row.
//
//go:noescape
func addRowsAVX2(c *float64, q int, a *float64, aStride int, b *float64, n, np int)

// transBTileAVX2 writes c[r·n+j] = Σ_p a[r·k+p]·b[j·k+p], ascending p from
// +0, for the four rows r and eight columns j of one tile.
//
//go:noescape
func transBTileAVX2(c *float64, n int, a, b *float64, k int)
