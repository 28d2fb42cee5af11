package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Model is a sequential stack of layers. The zero value is unusable; build
// models with NewModel or the architecture constructors (PaperCNN, MLP).
type Model struct {
	layers []Layer
	loss   SoftmaxCrossEntropy

	params []*Param // cached flat parameter list (layers are immutable)

	lastProbs  *tensor.Tensor
	lastLabels []int
}

// NewModel creates a sequential model from the given layers, which
// belong to the model from then on. Nothing reads the input gradient of
// the first layer — Backward discards it — so a convolution in that
// position is told not to compute one: its Backward returns a nil
// tensor.
func NewModel(layers ...Layer) *Model {
	if len(layers) > 0 {
		if c, ok := layers[0].(*Conv2D); ok {
			c.noInputGrad = true
		}
	}
	return &Model{layers: layers}
}

// Params returns every trainable parameter in layer order. The slice is
// computed once and cached — the layer stack never changes after
// NewModel — so the optimizer and weight-vector hot paths don't rebuild
// it every step. Callers must not mutate it.
func (m *Model) Params() []*Param {
	if m.params == nil {
		for _, l := range m.layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// ParamCount returns the total number of scalar weights.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Size()
	}
	return n
}

// Forward runs the layer stack; train selects training-mode behaviour
// (dropout sampling, backward caches).
func (m *Model) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for _, l := range m.layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Loss runs a training-mode forward pass and the loss; Backward may be
// called afterwards to accumulate gradients.
func (m *Model) Loss(x *tensor.Tensor, labels []int) (float64, error) {
	logits, err := m.Forward(x, true)
	if err != nil {
		return 0, err
	}
	loss, probs, err := m.loss.Forward(logits, labels)
	if err != nil {
		return 0, err
	}
	m.lastProbs, m.lastLabels = probs, labels
	return loss, nil
}

// Backward back-propagates the loss gradient from the last Loss call
// through every layer, accumulating parameter gradients.
func (m *Model) Backward() error {
	if m.lastProbs == nil {
		return fmt.Errorf("nn: Backward before Loss")
	}
	grad, err := m.loss.Backward(m.lastProbs, m.lastLabels)
	if err != nil {
		return err
	}
	for i := len(m.layers) - 1; i >= 0; i-- {
		grad, err = m.layers[i].Backward(grad)
		if err != nil {
			return err
		}
	}
	m.lastProbs, m.lastLabels = nil, nil
	return nil
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.G.Zero()
	}
}

// Evaluate returns mean accuracy and mean loss over inputs x with the
// given labels, in evaluation mode (no dropout).
func (m *Model) Evaluate(x *tensor.Tensor, labels []int) (acc, loss float64, err error) {
	logits, err := m.Forward(x, false)
	if err != nil {
		return 0, 0, err
	}
	loss, probs, err := m.loss.Forward(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	acc, err = Accuracy(probs, labels)
	if err != nil {
		return 0, 0, err
	}
	return acc, loss, nil
}

// WeightVector flattens every parameter into a single []float64 in layer
// order. This is the representation the aggregation protocols exchange:
// SAC secret-shares it and FedAvg averages it.
func (m *Model) WeightVector() []float64 {
	out := make([]float64, 0, m.ParamCount())
	for _, p := range m.Params() {
		out = append(out, p.W.Data()...)
	}
	return out
}

// SetWeightVector loads a flat weight vector produced by WeightVector
// (possibly from another replica of the same architecture).
func (m *Model) SetWeightVector(w []float64) error {
	want := m.ParamCount()
	if len(w) != want {
		return fmt.Errorf("nn: weight vector has %d elements, model has %d", len(w), want)
	}
	off := 0
	for _, p := range m.Params() {
		n := p.W.Size()
		copy(p.W.Data(), w[off:off+n])
		off += n
	}
	return nil
}

// Summary returns a human-readable architecture description.
func (m *Model) Summary() string {
	s := ""
	for i, l := range m.layers {
		if i > 0 {
			s += " → "
		}
		s += l.Name()
	}
	return fmt.Sprintf("%s (%d params)", s, m.ParamCount())
}
