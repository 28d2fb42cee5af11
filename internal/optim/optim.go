// Package optim provides the optimizer of federated learning's local
// training step: Adam, the paper's choice, with the paper's learning
// rate 1e-4.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Adam implements Kingma & Ba's Adam with bias correction. The defaults
// match the paper's setup: lr=1e-4, β1=0.9, β2=0.999, ε=1e-8.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*nn.Param][]float64
	v map[*nn.Param][]float64
}

// NewAdam creates an Adam optimizer with standard β/ε constants.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param][]float64),
		v: make(map[*nn.Param][]float64),
	}
}

// Step applies one update from the gradients stored in params; the
// caller zeroes them afterwards.
func (a *Adam) Step(params []*nn.Param) error {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
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
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mHat := m[i] / c1
			vHat := v[i] / c2
			w[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
	return nil
}
