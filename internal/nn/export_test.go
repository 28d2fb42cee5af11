package nn

import (
	"testing"

	"repro/internal/tensor"
)

// EachConvBody runs f as one subtest per body of the convolution
// micro-kernels: "go", the portable Go loops, and "avx2", the AVX2
// assembly, skipped where the CPU lacks it. It flips useAVX2 for the
// subtest and restores it after.
func EachConvBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, body := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(body.name, func(t *testing.T) {
			if body.avx2 && !tensor.HasAVX2() {
				t.Skip("this CPU has no AVX2")
			}
			defer func(saved bool) { useAVX2 = saved }(useAVX2)
			useAVX2 = body.avx2
			f(t)
		})
	}
}
