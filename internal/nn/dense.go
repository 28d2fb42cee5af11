package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// dense is a fully connected layer: y = x·Wᵀ + b with W of shape
// [out, in] and b of shape [out]. Inputs are [batch, in].
//
// Like conv2D, the layer owns reusable scratch workspaces for its output
// and input gradient; the tensors it returns are valid until its next
// call, and the weight gradient accumulates straight into w.G without a
// scratch product.
type dense struct {
	in, out int
	w, b    *Param
	lastX   *tensor.Tensor

	// noInputGrad is set by newModel on the model's first layer: nobody
	// reads its input gradient, so Backward returns nil.
	noInputGrad bool

	y  tensor.Scratch
	dx tensor.Scratch
}

// newDense creates a dense layer with He-normal weights and zero biases.
func newDense(in, out int, rng *rand.Rand) *dense {
	d := &dense{
		in:  in,
		out: out,
		w:   newParam(fmt.Sprintf("dense_%dx%d.w", out, in), out, in),
		b:   newParam(fmt.Sprintf("dense_%dx%d.b", out, in), out),
	}
	heInit(d.w.W, in, rng)
	return d
}

// Name implements layer.
func (d *dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.in, d.out) }

// Params implements layer.
func (d *dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward implements layer.
func (d *dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != d.in {
		return nil, fmt.Errorf("nn: %s: bad input shape %v", d.Name(), x.Shape())
	}
	d.lastX = x
	batch := x.Dim(0)
	y := d.y.Get(batch, d.out)
	if err := tensor.MatMulTransBInto(y, x, d.w.W); err != nil {
		return nil, err
	}
	bd := d.b.W.Data()
	yd := y.Data()
	for i := 0; i < batch; i++ {
		row := yd[i*d.out : (i+1)*d.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y, nil
}

// Backward implements layer. On a model's first layer it returns a nil
// input gradient (see newModel).
func (d *dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastX == nil {
		return nil, fmt.Errorf("nn: %s: Backward before Forward", d.Name())
	}
	if grad.Rank() != 2 || grad.Dim(1) != d.out || grad.Dim(0) != d.lastX.Dim(0) {
		return nil, fmt.Errorf("nn: %s: bad gradient shape %v", d.Name(), grad.Shape())
	}
	// dW += gradᵀ·x ([out, in]), accumulated straight into the parameter
	// gradient; db += column sums of grad.
	if err := tensor.MatMulTransAAcc(d.w.G, grad, d.lastX); err != nil {
		return nil, err
	}
	gb := d.b.G.Data()
	gd := grad.Data()
	batch := grad.Dim(0)
	for i := 0; i < batch; i++ {
		row := gd[i*d.out : (i+1)*d.out]
		for j, v := range row {
			gb[j] += v
		}
	}
	if d.noInputGrad {
		return nil, nil
	}
	// dx = grad·W  ([batch, in]).
	dx := d.dx.Get(batch, d.in)
	if err := tensor.MatMulInto(dx, grad, d.w.W); err != nil {
		return nil, err
	}
	return dx, nil
}
