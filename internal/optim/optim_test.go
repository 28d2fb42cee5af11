package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadParams builds a trivially optimizable "model": a single parameter
// vector whose gradient we set by hand.
func quadParams(dim int) []*nn.Param {
	p := &nn.Param{Name: "p", W: tensor.New(dim), G: tensor.New(dim)}
	return []*nn.Param{p}
}

// setQuadGrad sets G = W (gradient of ½‖w‖², minimized at 0).
func setQuadGrad(params []*nn.Param) {
	copy(params[0].G.Data(), params[0].W.Data())
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	params := quadParams(4)
	copy(params[0].W.Data(), []float64{1, -2, 3, -4})
	opt := NewAdam(0.05)
	for i := 0; i < 1000; i++ {
		setQuadGrad(params)
		if err := opt.Step(params); err != nil {
			t.Fatal(err)
		}
	}
	if n := params[0].W.Norm2(); n > 1e-3 {
		t.Fatalf("Adam did not converge: ‖w‖ = %v", n)
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ lr
	// regardless of gradient scale.
	for _, scale := range []float64{1e-4, 1, 1e4} {
		params := quadParams(1)
		params[0].W.Data()[0] = scale
		opt := NewAdam(0.01)
		setQuadGrad(params)
		if err := opt.Step(params); err != nil {
			t.Fatal(err)
		}
		moved := math.Abs(scale - params[0].W.Data()[0])
		if math.Abs(moved-0.01) > 1e-6 {
			t.Fatalf("scale %g: first step = %v, want ≈ lr", scale, moved)
		}
	}
}

func TestAdamOnRealModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := nn.MLP(4, []int{8}, 2, rng)
	x := tensor.New(6, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 0, 1, 0, 1}
	opt := NewAdam(0.01)
	var first, last float64
	for i := 0; i < 50; i++ {
		m.ZeroGrad()
		loss, err := m.Loss(x.Clone(), labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Backward(); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(m.Params()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("Adam training did not reduce loss: %v → %v", first, last)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	params := quadParams(1 << 16)
	opt := NewAdam(1e-3)
	setQuadGrad(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt.Step(params); err != nil {
			b.Fatal(err)
		}
	}
}
