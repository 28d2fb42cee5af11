//go:build !amd64

package tensor

// Off amd64 the matmul kernels and the aggregation kernels have only
// their Go bodies: useAVX2 is false, so nothing calls the AVX2 and stream
// entry points below.

func cpuAVX2() bool { return false }

func addRowsQuads(crow, a, b []float64, stride, p0, p1 int) int {
	panic("tensor: AVX2 kernel called off amd64")
}

func transBTiles(c, a, b []float64, lo, hi, k, n int) (rows, cols int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func scaleStream(dst [][]float64, f []float64, src []float64) {
	panic("tensor: stream kernel called off amd64")
}

func scaledSumStream(dst []float64, terms [][]float64, groups []int, s float64) {
	panic("tensor: stream kernel called off amd64")
}

func weightedSumStream(dst []float64, f []float64, terms [][]float64) {
	panic("tensor: stream kernel called off amd64")
}
