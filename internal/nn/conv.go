package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Padding selects the spatial padding mode of a convolution.
type Padding int

const (
	// PadValid applies no padding; output shrinks by kernel−1.
	PadValid Padding = iota
	// PadSame zero-pads so stride-1 output matches the input size.
	PadSame
)

// Conv2D is a 2-D convolution over [batch, inC, H, W] inputs, computed
// directly on the tensors by the register-blocked kernels of
// conv_kernels.go: forward, weight/bias gradient and input gradient each
// run one loop nest over the images, with no lowered column matrix in
// between. Kernels are square (k×k), stride is 1 — matching every
// convolution in the paper's CNN.
//
// The layer owns its output and input-gradient tensors and the few rows
// of kernel scratch, so steady-state training performs no per-batch
// allocations in this layer. Two lifetime rules follow:
//
//   - Tensors returned by Forward/Backward alias those workspaces: they
//     are valid until the layer's next call, which is exactly the
//     lifetime the sequential training loop needs.
//   - Forward keeps a reference to its input, not a copy: the caller must
//     leave that tensor unmodified until Backward has returned (Dense
//     does the same). A reused minibatch buffer may be refilled only
//     after Model.Backward.
//
// A layer is not safe for concurrent use; in parallel training each
// client owns its model. Inside one call the images (forward, input
// gradient) or the accumulator blocks (weight gradient) are fanned out
// over tensor's worker pool; every unit writes its own outputs in a
// fixed order, so results do not depend on the worker count.
type Conv2D struct {
	inC, outC, k int
	pad          Padding
	w, b         *Param

	// noInputGrad is set by NewModel on the model's first layer: nobody
	// reads dL/d(input) there, so Backward skips computing it.
	noInputGrad bool

	out, dx tensor.Scratch // [b, outC, oh, ow] activations, [b, inC, h, w] input gradient

	// What the tasks below read: the last Forward's geometry and input
	// (x is nil until the first Forward), the data of out and dx, and
	// Backward's argument.
	geom              convGeom
	x, y, grad, gradX []float64

	wpack   [][ocBlock]float64 // forward: weights interleaved per channel block
	dxSlots int                // backward: worker slots of the input-gradient pass
	rows    []float64          // backward: convGradX's 3·w scratch floats per slot
	zeros   []float64          // backward: read-only row of zeros, never written

	// The three passes as func values, built once so that a pass hands
	// the worker pool a ready function instead of allocating a closure
	// per call.
	forwardTask, gradWTask, gradXTask func(lo, hi int)
}

// convFanOutMACs is the multiply-add count below which a convolution
// pass runs on the caller's goroutine alone — the same order of work at
// which tensor's matmuls start to fan out.
const convFanOutMACs = 1 << 19

// NewConv2D creates a k×k stride-1 convolution with He-normal weights.
func NewConv2D(inC, outC, k int, pad Padding, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		inC: inC, outC: outC, k: k, pad: pad,
		w: newParam(fmt.Sprintf("conv_%dx%dx%d.w", outC, inC, k), outC, inC*k*k),
		b: newParam(fmt.Sprintf("conv_%dx%dx%d.b", outC, inC, k), outC),
	}
	heInit(c.w.W, inC*k*k, rng)
	c.forwardTask, c.gradWTask, c.gradXTask = c.forwardUnits, c.gradWUnits, c.gradXSlots
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d→%d, %dx%d)", c.inC, c.outC, c.k, c.k)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2D) padPixels() int {
	if c.pad == PadSame {
		return (c.k - 1) / 2
	}
	return 0
}

// run executes task over [0, units), fanned out over the worker pool
// when the pass is large enough to pay for it.
func (c *Conv2D) run(task func(lo, hi int), units int) {
	if c.geom.macs() < convFanOutMACs {
		task(0, units)
		return
	}
	tensor.ParallelRows(units, task)
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		return nil, fmt.Errorf("nn: %s: bad input shape %v", c.Name(), x.Shape())
	}
	b, h, w, p := x.Dim(0), x.Dim(2), x.Dim(3), c.padPixels()
	oh, ow := h+2*p-c.k+1, w+2*p-c.k+1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: %s: kernel too large for %dx%d input with pad %d", c.Name(), h, w, p)
	}
	c.geom = convGeom{b: b, inC: c.inC, outC: c.outC, h: h, w: w, oh: oh, ow: ow, k: c.k, p: p}
	c.x = x.Data()

	if n := c.geom.ocBlocks() * c.geom.taps(); len(c.wpack) < n {
		c.wpack = make([][ocBlock]float64, n)
	}
	packWeights(&c.geom, c.wpack, c.w.W.Data())
	out := c.out.Get(b, c.outC, oh, ow)
	c.y = out.Data()
	c.run(c.forwardTask, b*c.geom.ocBlocks())
	return out, nil
}

// forwardUnits computes units [lo, hi) of the forward pass; unit u is
// image u / ocBlocks, output-channel block u % ocBlocks.
func (c *Conv2D) forwardUnits(lo, hi int) {
	g := &c.geom
	nob := g.ocBlocks()
	for u := lo; u < hi; u++ {
		convForward(g, c.x, c.wpack, c.b.W.Data(), c.y, u/nob, u%nob)
	}
}

// Backward implements Layer. On a model's first layer it returns a nil
// input gradient (see NewModel).
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.x == nil {
		return nil, fmt.Errorf("nn: %s: Backward before Forward", c.Name())
	}
	g := &c.geom
	if grad.Rank() != 4 || grad.Dim(0) != g.b || grad.Dim(1) != c.outC ||
		grad.Dim(2) != g.oh || grad.Dim(3) != g.ow {
		return nil, fmt.Errorf("nn: %s: bad gradient shape %v", c.Name(), grad.Shape())
	}
	c.grad = grad.Data()

	// The weight gradient is split by accumulator block, never by image:
	// every dW element is one chain over the whole batch.
	c.run(c.gradWTask, g.ocBlocks()*g.ciPairs())
	if c.noInputGrad {
		return nil, nil
	}

	// The (image, channel pair) units are dealt to worker slots in
	// contiguous runs fixed by the slot count, so each slot has private
	// scratch rows whether or not the pool gives it a goroutine of its own.
	c.dxSlots = min(tensor.Parallelism(), g.b*g.ciPairs())
	if n := 3 * c.dxSlots * g.w; len(c.rows) < n {
		c.rows = make([]float64, n)
	}
	if len(c.zeros) < g.w {
		c.zeros = make([]float64, g.w)
	}
	dx := c.dx.Get(g.b, c.inC, g.h, g.w)
	c.gradX = dx.Data()
	c.run(c.gradXTask, c.dxSlots)
	return dx, nil
}

// gradWUnits accumulates weight/bias-gradient units [lo, hi); unit u is
// output-channel block u / ciPairs, input-channel pair u % ciPairs.
func (c *Conv2D) gradWUnits(lo, hi int) {
	g := &c.geom
	ncp := g.ciPairs()
	for u := lo; u < hi; u++ {
		convGradW(g, c.x, c.grad, c.w.G.Data(), c.b.G.Data(), u/ncp, u%ncp)
	}
}

// gradXSlots computes the input gradient for worker slots [lo, hi).
func (c *Conv2D) gradXSlots(lo, hi int) {
	g := &c.geom
	ncp := g.ciPairs()
	units := g.b * ncp
	for s := lo; s < hi; s++ {
		scratch := c.rows[3*s*g.w : 3*(s+1)*g.w]
		for u := s * units / c.dxSlots; u < (s+1)*units/c.dxSlots; u++ {
			convGradX(g, c.grad, c.w.W.Data(), c.gradX, scratch, c.zeros, u/ncp, u%ncp)
		}
	}
}
