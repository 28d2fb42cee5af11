package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D is a p×p max pooling layer with stride p over
// [batch, channels, H, W] inputs. Trailing rows/columns that do not fill a
// complete window are dropped (floor semantics), matching the framework
// the paper's model was defined in.
type MaxPool2D struct {
	p int

	lastShape []int // input shape
	lastArg   []int // flat input index of each output's max

	out tensor.Scratch
	dx  tensor.Scratch
}

// NewMaxPool2D creates a pooling layer with window and stride p.
func NewMaxPool2D(p int) *MaxPool2D { return &MaxPool2D{p: p} }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(%d)", m.p) }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
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
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * h * w
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					// Seeded from the window's first element, so the argmax
					// is a real index even when nothing compares greater
					// (a window of NaNs or −Inf) and a NaN there reaches
					// the loss instead of stopping here.
					bestIdx := base + oy*m.p*w + ox*m.p
					best := xd[bestIdx]
					for dy := 0; dy < m.p; dy++ {
						iy := oy*m.p + dy
						for dx := 0; dx < m.p; dx++ {
							ix := ox*m.p + dx
							idx := base + iy*w + ix
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					o := ((bi*c+ci)*outH+oy)*outW + ox
					od[o] = best
					m.lastArg[o] = bestIdx
				}
			}
		}
	}
	return out, nil
}

// Backward implements Layer. The gradient routes to the argmax of each
// window; all other positions receive zero.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
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
