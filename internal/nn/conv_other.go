//go:build !amd64

package nn

// Off amd64 the micro-kernels have only their Go bodies: useAVX2 is
// false, so nothing calls the AVX2 entry points below.

func convInteriorOct(g *convGeom, xb []float64, wb [][ocBlock]float64, sums *[8][ocBlock]float64, xo, kyLo, kyHi int) {
	panic("nn: AVX2 kernel called off amd64")
}

func convInteriorOctStore(g *convGeom, xb []float64, wb [][ocBlock]float64, bs *[ocBlock]float64, out []float64, plane, xo, kyLo, kyHi int) {
	panic("nn: AVX2 kernel called off amd64")
}

func gradXQuads(r0, r1, s0, s1, g0, g1, g2, g3 []float64, w *[2][ocBlock]float64, add bool) int {
	panic("nn: AVX2 kernel called off amd64")
}

func (v *gradWView) rowsAVX2(a [][2][ocBlock]float64, ky0, y0, y1 int) {
	panic("nn: AVX2 kernel called off amd64")
}
