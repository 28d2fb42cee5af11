package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// directConv2D is a naive quadruple-loop convolution, bias first, used as
// an independent reference for Conv2D's forward pass (to a tolerance: its
// summation order is its own).
func directConv2D(x *tensor.Tensor, w []float64, b []float64, inC, outC, k, pad int) *tensor.Tensor {
	batch, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := h + 2*pad - k + 1
	outW := wd + 2*pad - k + 1
	out := tensor.New(batch, outC, outH, outW)
	for bi := 0; bi < batch; bi++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					sum := b[oc]
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							iy := oy + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								sum += x.At(bi, ic, iy, ix) * w[(oc*inC+ic)*k*k+ky*k+kx]
							}
						}
					}
					out.Set(sum, bi, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConvMatchesDirectImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		inC, outC, k int
		pad          Padding
		size         int
	}{
		{1, 1, 3, PadValid, 5},
		{2, 3, 3, PadSame, 6},
		{3, 2, 3, PadValid, 7},
		{1, 4, 3, PadSame, 4},
	}
	for _, tc := range cases {
		c := NewConv2D(tc.inC, tc.outC, tc.k, tc.pad, rng)
		x := randTensor(rng, 2, tc.inC, tc.size, tc.size)
		got, err := c.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		pad := 0
		if tc.pad == PadSame {
			pad = (tc.k - 1) / 2
		}
		want := directConv2D(x, c.w.W.Data(), c.b.W.Data(), tc.inC, tc.outC, tc.k, pad)
		if !tensor.AllClose(got, want, 1e-10) {
			t.Fatalf("conv(%d→%d,k=%d,pad=%v) disagrees with direct convolution", tc.inC, tc.outC, tc.k, tc.pad)
		}
	}
}

func BenchmarkPaperCNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m, err := PaperCNN(3, 32, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := randTensor(rng, 4, 3, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperCNNForwardBackward covers the gradient path alone; the
// full step (with the optimizer update) is BenchmarkPaperCNNTrainStep
// in trainstep_bench_test.go.
func BenchmarkPaperCNNForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m, err := PaperCNN(3, 32, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := randTensor(rng, 4, 3, 32, 32)
	labels := []int{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		if _, err := m.Loss(x.Clone(), labels); err != nil {
			b.Fatal(err)
		}
		if err := m.Backward(); err != nil {
			b.Fatal(err)
		}
	}
}
