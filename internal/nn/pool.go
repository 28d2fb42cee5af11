package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// maxPool2D is a p×p max pooling layer with stride p over
// [batch, channels, H, W] inputs. Trailing rows/columns that do not fill a
// complete window are dropped (floor semantics), matching the framework
// the paper's model was defined in.
type maxPool2D struct {
	p int

	lastShape []int // input shape
	lastArg   []int // flat input index of each output's max

	out tensor.Scratch
	dx  tensor.Scratch
}

// newMaxPool2D creates a pooling layer with window and stride p.
func newMaxPool2D(p int) *maxPool2D { return &maxPool2D{p: p} }

// Name implements layer.
func (m *maxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(%d)", m.p) }

// Params implements layer.
func (m *maxPool2D) Params() []*Param { return nil }

// Forward implements layer.
func (m *maxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: %s: bad input shape %v", m.Name(), x.Shape())
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := h/m.p, w/m.p
	if outH == 0 || outW == 0 {
		return nil, fmt.Errorf("nn: %s: input %dx%d smaller than window", m.Name(), h, w)
	}
	out := m.out.Get(b, c, outH, outW)
	m.lastShape = x.AppendShape(m.lastShape[:0])
	if cap(m.lastArg) < out.Size() {
		m.lastArg = make([]int, out.Size())
	}
	m.lastArg = m.lastArg[:out.Size()]
	xd, od := x.Data(), out.Data()
	p := m.p
	for pl := 0; pl < b*c; pl++ {
		base := pl * h * w
		for oy := 0; oy < outH; oy++ {
			o := (pl*outH + oy) * outW
			best := od[o : o+outW]
			arg := m.lastArg[o : o+outW]
			// Seeded from the window's first element, so the argmax is a
			// real index even when nothing compares greater (a window of
			// NaNs or −Inf) and a NaN there reaches the loss instead of
			// stopping here.
			r0 := base + oy*p*w
			for ox := range best {
				idx := r0 + ox*p
				best[ox], arg[ox] = xd[idx], idx
			}
			// The rest of each window in (dy, dx) order, a whole output
			// row per tap.
			for dy := 0; dy < p; dy++ {
				for dx := 0; dx < p; dx++ {
					if dy > 0 || dx > 0 {
						maxTap(best, arg, xd, r0+dy*w+dx, p)
					}
				}
			}
		}
	}
	return out, nil
}

// maxTap folds x[r + ox·p] into the running maximum best[ox] and its
// index arg[ox], for every ox. A strict > keeps the first of tied maxima
// and never takes a NaN; the select is a bit mask, not a branch on
// random data.
func maxTap(best []float64, arg []int, x []float64, r, p int) {
	arg = arg[:len(best)]
	for ox, cur := range best {
		idx := r + ox*p
		v := x[idx]
		sel := bitMask(v > cur)
		cb := math.Float64bits(cur)
		best[ox] = math.Float64frombits(cb ^ (cb^math.Float64bits(v))&sel)
		arg[ox] ^= (arg[ox] ^ idx) & int(sel)
	}
}

// Backward implements layer. The gradient routes to the argmax of each
// window; all other positions receive zero.
func (m *maxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.lastArg == nil {
		return nil, fmt.Errorf("nn: %s: Backward before Forward", m.Name())
	}
	if grad.Size() != len(m.lastArg) {
		return nil, fmt.Errorf("nn: %s: bad gradient shape %v", m.Name(), grad.Shape())
	}
	dx := m.dx.Get(m.lastShape...)
	dx.Zero()
	dd, gd := dx.Data(), grad.Data()
	for o, src := range m.lastArg {
		dd[src] += gd[o]
	}
	return dx, nil
}
