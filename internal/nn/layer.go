// Package nn implements the from-scratch neural-network stack used by the
// federated-learning experiments: dense and convolutional layers, pooling,
// dropout, ReLU, a fused softmax/cross-entropy loss and a sequential model
// container whose weights can be flattened to a vector — the representation
// exchanged by the SAC and FedAvg aggregation protocols.
//
// The paper's CIFAR-10 CNN (Fig. 5, 1,250,858 parameters) is constructible
// via PaperCNN.
package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is a trainable parameter: a weight tensor and its gradient, which
// always share a shape. Layers expose their parameters so optimizers and
// the federated averaging code can iterate over them uniformly.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// layer is one stage of a sequential network.
//
// Forward consumes the previous activation; when train is true, layers with
// stochastic behaviour (dropout) sample a fresh mask and layers cache
// whatever Backward needs. Backward consumes dL/d(output) and returns
// dL/d(input), accumulating parameter gradients into Params().G.
type layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	Params() []*Param
}

// heInit fills t with He-normal initialization for fanIn inputs, the
// standard choice for relu networks.
func heInit(t *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64() * std
	}
}
