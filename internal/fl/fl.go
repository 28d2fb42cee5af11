// Package fl implements the federated-learning building blocks from
// Sec. III-A of the paper: sample-count-weighted Federated Averaging and
// the per-peer local training step (one or more epochs of minibatch
// optimization on the peer's private shard).
//
// Models are exchanged as flat weight vectors (nn.Model.WeightVector),
// which is also the representation the SAC protocols secret-share.
package fl

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// WeightedAverage computes the FedAvg update
// w ← Σ_k (n_k / n) · w_k over flat weight vectors, where n_k is the
// sample count backing model k. All vectors must share a length and at
// least one weight must be positive.
func WeightedAverage(models [][]float64, counts []float64) ([]float64, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("fl: no models to average")
	}
	if len(counts) != len(models) {
		return nil, fmt.Errorf("fl: %d counts for %d models", len(counts), len(models))
	}
	dim := len(models[0])
	total := 0.0
	for i, m := range models {
		if len(m) != dim {
			return nil, fmt.Errorf("fl: model %d has %d weights, want %d", i, len(m), dim)
		}
		if counts[i] < 0 {
			return nil, fmt.Errorf("fl: negative sample count %v", counts[i])
		}
		total += counts[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("fl: all sample counts are zero")
	}
	out := make([]float64, dim)
	for i, m := range models {
		f := counts[i] / total
		if f == 0 {
			continue
		}
		for j, v := range m {
			out[j] += f * v
		}
	}
	return out, nil
}

// TrainConfig controls one local-update step.
type TrainConfig struct {
	Epochs    int  // paper: 1 epoch per round
	BatchSize int  // paper: 50
	Flat      bool // feed [batch, pixels] instead of [batch, C, H, W]
}

// Client is one federated-learning peer: a model, an optimizer and a
// private training shard.
type Client struct {
	ID    int
	Model *nn.Model
	Opt   optim.Optimizer
	Data  *dataset.Dataset
	Cfg   TrainConfig
	rng   *rand.Rand
	buf   batchBuffer
}

// batchBuffer is one reusable minibatch: TrainRound and EvaluateModel
// refill it every step instead of allocating a [batch, C, H, W] tensor
// per step. The model keeps reading the tensor it was handed until its
// Backward returns (nn.Conv2D and nn.Dense hold their input by
// reference), so a buffer is refilled only after that.
type batchBuffer struct {
	x      tensor.Scratch
	labels []int
}

// fill loads samples [lo, hi) of d, 0 ≤ lo < hi ≤ d.Len(), as images or,
// with flat set, as [hi−lo, pixels] rows.
func (b *batchBuffer) fill(d *dataset.Dataset, flat bool, lo, hi int) (*tensor.Tensor, []int, error) {
	n := hi - lo
	var x *tensor.Tensor
	if flat {
		x = b.x.Get(n, d.PixelDim())
	} else {
		x = b.x.Get(n, d.Channels, d.Size, d.Size)
	}
	if cap(b.labels) < n {
		b.labels = make([]int, n)
	}
	labels := b.labels[:n]
	return x, labels, d.BatchInto(x, labels, lo, hi)
}

// NewClient builds a client. rng drives data shuffling between epochs.
func NewClient(id int, model *nn.Model, opt optim.Optimizer, data *dataset.Dataset, cfg TrainConfig, rng *rand.Rand) *Client {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 50
	}
	return &Client{ID: id, Model: model, Opt: opt, Data: data, Cfg: cfg, rng: rng}
}

// SampleCount returns the number of local training samples (n_k).
func (c *Client) SampleCount() int { return c.Data.Len() }

// Weights returns the client's current flat weight vector.
func (c *Client) Weights() []float64 { return c.Model.WeightVector() }

// SetWeights installs a (typically aggregated) flat weight vector.
func (c *Client) SetWeights(w []float64) error { return c.Model.SetWeightVector(w) }

// TrainRound runs the local update: Cfg.Epochs epochs of minibatch
// training on the client's shard. It returns the mean training loss
// across all optimizer steps of the round.
func (c *Client) TrainRound() (float64, error) {
	if c.Data.Len() == 0 {
		return 0, fmt.Errorf("fl: client %d has no data", c.ID)
	}
	totalLoss, steps := 0.0, 0
	for e := 0; e < c.Cfg.Epochs; e++ {
		c.Data.Shuffle(c.rng)
		for lo := 0; lo < c.Data.Len(); lo += c.Cfg.BatchSize {
			hi := lo + c.Cfg.BatchSize
			if hi > c.Data.Len() {
				hi = c.Data.Len()
			}
			x, labels, err := c.buf.fill(c.Data, c.Cfg.Flat, lo, hi)
			if err != nil {
				return 0, err
			}
			c.Model.ZeroGrad()
			loss, err := c.Model.Loss(x, labels)
			if err != nil {
				return 0, err
			}
			if err := c.Model.Backward(); err != nil {
				return 0, err
			}
			if err := c.Opt.Step(c.Model.Params()); err != nil {
				return 0, err
			}
			totalLoss += loss
			steps++
		}
	}
	return totalLoss / float64(steps), nil
}

// EvaluateModel measures accuracy and mean loss of model over an entire
// dataset, batched to bound memory.
func EvaluateModel(model *nn.Model, test *dataset.Dataset, flat bool) (acc, loss float64, err error) {
	if test.Len() == 0 {
		return 0, 0, fmt.Errorf("fl: empty test set")
	}
	const evalBatch = 256
	var buf batchBuffer
	var accSum, lossSum float64
	n := 0
	for lo := 0; lo < test.Len(); lo += evalBatch {
		hi := lo + evalBatch
		if hi > test.Len() {
			hi = test.Len()
		}
		x, labels, err := buf.fill(test, flat, lo, hi)
		if err != nil {
			return 0, 0, err
		}
		a, l, err := model.Evaluate(x, labels)
		if err != nil {
			return 0, 0, err
		}
		w := hi - lo
		accSum += a * float64(w)
		lossSum += l * float64(w)
		n += w
	}
	return accSum / float64(n), lossSum / float64(n), nil
}
