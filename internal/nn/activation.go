package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// relu applies max(0, x) elementwise: a unit is kept when x > 0, and
// every other input — negative, ±0 or NaN — gives +0. The output and
// gradient tensors are layer-owned workspaces, reused across batches.
//
// Both passes select without a branch: the sign of a random activation
// is a coin flip a branch predictor loses half the time, so the kept
// value is its bits ANDed with a mask that is all ones for a kept unit.
type relu struct {
	mask []bool
	y    tensor.Scratch
	dx   tensor.Scratch
}

// newReLU creates a relu activation layer.
func newReLU() *relu { return &relu{} }

// Name implements layer.
func (r *relu) Name() string { return "ReLU" }

// Params implements layer.
func (r *relu) Params() []*Param { return nil }

// Forward implements layer.
func (r *relu) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	y := r.y.GetLike(x)
	n := x.Size()
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
	xd, yd := x.Data(), y.Data()
	mask := r.mask[:len(xd)]
	yd = yd[:len(xd)]
	for i, v := range xd {
		keep := v > 0
		mask[i] = keep
		yd[i] = math.Float64frombits(math.Float64bits(v) & bitMask(keep))
	}
	return y, nil
}

// Backward implements layer.
func (r *relu) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.mask == nil {
		return nil, fmt.Errorf("nn: ReLU: Backward before Forward")
	}
	if grad.Size() != len(r.mask) {
		return nil, fmt.Errorf("nn: ReLU: bad gradient shape %v", grad.Shape())
	}
	dx := r.dx.GetLike(grad)
	gd, dd := grad.Data(), dx.Data()
	gd, dd = gd[:len(r.mask)], dd[:len(r.mask)]
	for i, keep := range r.mask {
		dd[i] = math.Float64frombits(math.Float64bits(gd[i]) & bitMask(keep))
	}
	return dx, nil
}

// bitMask is all ones when b holds and zero otherwise. The compiler
// turns the bool into an integer without a branch.
func bitMask(b bool) uint64 {
	var m uint64
	if b {
		m = 1
	}
	return -m
}

// flatten reshapes [batch, ...] activations to [batch, features].
type flatten struct {
	lastShape []int
}

// newFlatten creates a flatten layer.
func newFlatten() *flatten { return &flatten{} }

// Name implements layer.
func (f *flatten) Name() string { return "Flatten" }

// Params implements layer.
func (f *flatten) Params() []*Param { return nil }

// Forward implements layer.
func (f *flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() < 2 {
		return nil, fmt.Errorf("nn: Flatten: bad input shape %v", x.Shape())
	}
	f.lastShape = x.AppendShape(f.lastShape[:0])
	return x.Reshape(x.Dim(0), x.Size()/x.Dim(0))
}

// Backward implements layer.
func (f *flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.lastShape == nil {
		return nil, fmt.Errorf("nn: Flatten: Backward before Forward")
	}
	return grad.Reshape(f.lastShape...)
}

// dropout zeroes activations with probability Rate during training and
// scales survivors by 1/(1−Rate) (inverted dropout), so inference needs no
// rescaling. At evaluation time it is the identity.
type dropout struct {
	Rate float64
	rng  *rand.Rand
	mask []float64
	y    tensor.Scratch
	dx   tensor.Scratch
}

// newDropout creates a dropout layer with the given drop rate in [0, 1).
func newDropout(rate float64, rng *rand.Rand) *dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &dropout{Rate: rate, rng: rng}
}

// Name implements layer.
func (d *dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.Rate) }

// Params implements layer.
func (d *dropout) Params() []*Param { return nil }

// Forward implements layer.
func (d *dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x, nil
	}
	keep := 1 - d.Rate
	n := x.Size()
	if cap(d.mask) < n {
		d.mask = make([]float64, n)
	}
	d.mask = d.mask[:n]
	y := d.y.GetLike(x)
	xd, yd := x.Data(), y.Data()
	for i := range d.mask {
		if d.rng.Float64() < keep {
			d.mask[i] = 1 / keep
		} else {
			d.mask[i] = 0
		}
		yd[i] = xd[i] * d.mask[i]
	}
	return y, nil
}

// Backward implements layer.
func (d *dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.mask == nil {
		// Eval mode (or rate 0): identity.
		return grad, nil
	}
	if grad.Size() != len(d.mask) {
		return nil, fmt.Errorf("nn: Dropout: bad gradient shape %v", grad.Shape())
	}
	dx := d.dx.GetLike(grad)
	gd, dd := grad.Data(), dx.Data()
	for i, m := range d.mask {
		dd[i] = gd[i] * m
	}
	return dx, nil
}
