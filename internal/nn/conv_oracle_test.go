package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// loweredConv2D is the convolution conv2D used to be — im2col, one matrix
// multiplication per pass, col2im — kept as the oracle the direct kernels
// are compared against bit for bit. It implements layer so whole models
// can be rebuilt on it (WithLoweredConvs).
type loweredConv2D struct {
	inC, outC, k, pad int
	w, b              *Param

	cols                            *tensor.Tensor
	lastB, lastH, lastW, outH, outW int
}

// lowered returns the oracle twin of c, sharing c's parameters.
func lowered(c *conv2D) *loweredConv2D {
	return &loweredConv2D{inC: c.inC, outC: c.outC, k: c.k, pad: c.padPixels(), w: c.w, b: c.b}
}

// WithLoweredConvs returns a model over m's layers with every conv2D
// replaced by its oracle twin (same Param objects, so same weights).
func WithLoweredConvs(m *Model) *Model {
	layers := make([]layer, len(m.layers))
	for i, l := range m.layers {
		if c, ok := l.(*conv2D); ok {
			l = lowered(c)
		}
		layers[i] = l
	}
	return newModel(layers...)
}

func (c *loweredConv2D) Name() string     { return fmt.Sprintf("loweredConv2D(%d→%d)", c.inC, c.outC) }
func (c *loweredConv2D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *loweredConv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	cols, outH, outW, err := tensor.Im2Col(x, c.k, c.k, 1, c.pad)
	if err != nil {
		return nil, err
	}
	c.cols, c.lastB, c.lastH, c.lastW, c.outH, c.outW = cols, b, h, w, outH, outW
	// flat = cols·Wᵀ + bias: [b·outH·outW, outC].
	flat, err := tensor.MatMulTransB(cols, c.w.W)
	if err != nil {
		return nil, err
	}
	fd, bd := flat.Data(), c.b.W.Data()
	for i := range fd {
		fd[i] += bd[i%c.outC]
	}
	out := tensor.New(b, c.outC, outH, outW)
	c.transpose(out.Data(), fd, false)
	return out, nil
}

// transpose moves between img [b, outC, outH, outW] and flat
// [b·outH·outW, outC]; toFlat selects the direction.
func (c *loweredConv2D) transpose(img, flat []float64, toFlat bool) {
	for bi := 0; bi < c.lastB; bi++ {
		for ch := 0; ch < c.outC; ch++ {
			for o := 0; o < c.outH*c.outW; o++ {
				i, f := (bi*c.outC+ch)*c.outH*c.outW+o, (bi*c.outH*c.outW+o)*c.outC+ch
				if toFlat {
					flat[f] = img[i]
				} else {
					img[i] = flat[f]
				}
			}
		}
	}
}

func (c *loweredConv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.cols == nil {
		return nil, fmt.Errorf("nn: %s: Backward before Forward", c.Name())
	}
	flat := tensor.New(c.lastB*c.outH*c.outW, c.outC)
	fd := flat.Data()
	c.transpose(grad.Data(), fd, true)
	// dW += flatᵀ·cols; db += column sums of flat.
	if err := tensor.MatMulTransAAcc(c.w.G, flat, c.cols); err != nil {
		return nil, err
	}
	gb := c.b.G.Data()
	for i, v := range fd {
		gb[i%c.outC] += v
	}
	// dx = col2im(flat·W).
	dcols, err := tensor.MatMul(flat, c.w.W)
	if err != nil {
		return nil, err
	}
	return tensor.Col2Im(dcols, c.lastB, c.inC, c.lastH, c.lastW, c.k, c.k, 1, c.pad)
}
