// Package optim provides the optimizer of federated learning's local
// training step: Adam, the paper's choice, with the paper's learning
// rate 1e-4.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Adam's decay rates and denominator guard: Kingma & Ba's standard
// constants, which the paper uses. They are typed, so 1−beta1 is the
// float64 difference a variable would give.
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// Adam implements Kingma & Ba's Adam with bias correction at learning
// rate LR (the paper's is 1e-4).
type Adam struct {
	LR float64

	t int
	m map[*nn.Param][]float64
	v map[*nn.Param][]float64
}

// NewAdam creates an Adam optimizer with step size lr.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr,
		m:  make(map[*nn.Param][]float64),
		v:  make(map[*nn.Param][]float64),
	}
}

// Step applies one update from the gradients stored in params; the
// caller zeroes them afterwards.
func (a *Adam) Step(params []*nn.Param) error {
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for _, p := range params {
		w, g := p.W.Data(), p.G.Data()
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(w))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(w))
			a.v[p] = v
		}
		if len(m) != len(w) {
			return fmt.Errorf("optim: parameter %q changed size", p.Name)
		}
		for i := range w {
			m[i] = beta1*m[i] + (1-beta1)*g[i]
			v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
			mHat := m[i] / c1
			vHat := v[i] / c2
			w[i] -= a.LR * mHat / (math.Sqrt(vHat) + eps)
		}
	}
	return nil
}
