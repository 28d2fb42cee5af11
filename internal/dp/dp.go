// Package dp implements the differential-privacy extension the paper
// points to in Sec. IV-D ("other techniques such as Differential Privacy
// [16] could be used to add noise to the weight of each peer"): per-peer
// weight perturbation before the SAC exchange, via the Gaussian
// mechanism over L2-clipped updates.
//
// The mechanism operates on the model *delta* (the locally updated
// weights minus the distributed global weights), which is the quantity
// whose sensitivity clipping can bound; the noisy delta is re-applied to
// the global weights before aggregation.
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// Gaussian is the Gaussian mechanism: noise N(0, σ²) with
// σ = Clip·√(2·ln(1.25/δ))/ε, which is (ε, δ)-DP for one release of an
// L2-clipped vector (Dwork & Roth, Thm. A.1).
type Gaussian struct {
	Epsilon, Delta float64
	Clip           float64
}

// Name identifies the mechanism and its parameters for logs.
func (g Gaussian) Name() string {
	return fmt.Sprintf("gaussian(ε=%g, δ=%g, C=%g)", g.Epsilon, g.Delta, g.Clip)
}

// Sigma returns the calibrated noise scale.
func (g Gaussian) Sigma() float64 {
	return g.Clip * math.Sqrt(2*math.Log(1.25/g.Delta)) / g.Epsilon
}

// Perturb adds calibrated noise to w in place.
func (g Gaussian) Perturb(w []float64, rng *rand.Rand) {
	sigma := g.Sigma()
	for i := range w {
		w[i] += rng.NormFloat64() * sigma
	}
}

// clipL2 scales v in place so its Euclidean norm is at most c, returning
// the applied factor (1 when no clipping was needed).
func clipL2(v []float64, c float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("dp: clip bound %v must be positive", c)
	}
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	norm := math.Sqrt(ss)
	if norm <= c || norm == 0 {
		return 1, nil
	}
	f := c / norm
	for i := range v {
		v[i] *= f
	}
	return f, nil
}

// PrivatizeUpdate produces the differentially private weights a peer
// submits to aggregation: delta = local − global is L2-clipped to
// g.Clip, the bound g's σ is calibrated to, and perturbed by g, then
// re-applied to global. local and global are not modified.
func PrivatizeUpdate(local, global []float64, g Gaussian, rng *rand.Rand) ([]float64, error) {
	if len(local) != len(global) {
		return nil, fmt.Errorf("dp: local has %d weights, global %d", len(local), len(global))
	}
	if !(g.Epsilon > 0 && g.Delta > 0 && g.Delta < 1) {
		return nil, fmt.Errorf("dp: %s calibrates no noise: want ε > 0 and 0 < δ < 1", g.Name())
	}
	delta := make([]float64, len(local))
	for i := range delta {
		delta[i] = local[i] - global[i]
	}
	if _, err := clipL2(delta, g.Clip); err != nil {
		return nil, err
	}
	g.Perturb(delta, rng)
	out := make([]float64, len(local))
	for i := range out {
		out[i] = global[i] + delta[i]
	}
	return out, nil
}
