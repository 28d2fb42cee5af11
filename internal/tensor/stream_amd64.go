package tensor

// The stream bodies of stream.go's kernels: the Go functions below pass
// the pointers of slices stream.go has checked, at least one output
// float and one term, to the assembly of stream_amd64.s. Each assembly
// function writes its whole output and returns after SFENCE.

func scaleStream(dst [][]float64, f []float64, src []float64) {
	scaleNT(&dst[0], len(dst), &f[0], &src[0], len(src))
}

func scaledSumStream(dst []float64, terms [][]float64, groups []int, s float64) {
	scaledSumNT(&dst[0], len(dst), &terms[0], &groups[0], len(groups), s)
}

func weightedSumStream(dst []float64, f []float64, terms [][]float64) {
	weightedSumNT(&dst[0], len(dst), &terms[0], &f[0], len(terms))
}

// scaleNT writes f[i]·src[x] into dst[i][x] for the nd outputs and the n
// floats of src.
//
//go:noescape
func scaleNT(dst *[]float64, nd int, f *float64, src *float64, n int)

// scaledSumNT writes (0 + G₀[x] + … + G_{ng−1}[x])·s into dst[x] for
// the n floats of dst, where G_g is 0 plus the next groups[g] terms.
//
//go:noescape
func scaledSumNT(dst *float64, n int, terms *[]float64, groups *int, ng int, s float64)

// weightedSumNT writes 0 + f[0]·terms[0][x] + … into dst[x], skipping
// the terms whose factor is zero.
//
//go:noescape
func weightedSumNT(dst *float64, n int, terms *[]float64, f *float64, nt int)
