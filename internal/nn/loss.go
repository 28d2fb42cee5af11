package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// softmaxCrossEntropy is the fused softmax + categorical-cross-entropy
// loss used by the paper's experiments. Fusing keeps the gradient
// numerically exact: dL/dlogits = (softmax(logits) − onehot) / batch.
// The probability and gradient tensors are reusable workspaces owned by
// the loss value, valid until its next call.
type softmaxCrossEntropy struct {
	probs tensor.Scratch
	grad  tensor.Scratch
}

// Forward computes the mean cross-entropy of logits [batch, classes]
// against integer labels, along with the class probabilities.
func (l *softmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) (loss float64, probs *tensor.Tensor, err error) {
	if logits.Rank() != 2 {
		return 0, nil, fmt.Errorf("nn: cross-entropy: logits must be rank 2, got %v", logits.Shape())
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		return 0, nil, fmt.Errorf("nn: cross-entropy: %d labels for batch %d", len(labels), batch)
	}
	probs = l.probs.GetLike(logits)
	copy(probs.Data(), logits.Data())
	pd := probs.Data()
	total := 0.0
	for i := 0; i < batch; i++ {
		if labels[i] < 0 || labels[i] >= classes {
			return 0, nil, fmt.Errorf("nn: cross-entropy: label %d out of range [0,%d)", labels[i], classes)
		}
		row := pd[i*classes : (i+1)*classes]
		// Stable softmax: subtract the row max before exponentiating.
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
		p := row[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		total -= math.Log(p)
	}
	return total / float64(batch), probs, nil
}

// Backward computes dL/dlogits from the probabilities returned by Forward.
func (l *softmaxCrossEntropy) Backward(probs *tensor.Tensor, labels []int) (*tensor.Tensor, error) {
	batch, classes := probs.Dim(0), probs.Dim(1)
	if len(labels) != batch {
		return nil, fmt.Errorf("nn: cross-entropy: %d labels for batch %d", len(labels), batch)
	}
	grad := l.grad.GetLike(probs)
	copy(grad.Data(), probs.Data())
	gd := grad.Data()
	inv := 1.0 / float64(batch)
	for i := 0; i < batch; i++ {
		row := gd[i*classes : (i+1)*classes]
		row[labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad, nil
}

// accuracy returns the fraction of rows of probs (or logits — argmax is
// invariant to softmax) whose argmax equals the label.
func accuracy(scores *tensor.Tensor, labels []int) (float64, error) {
	if scores.Rank() != 2 {
		return 0, fmt.Errorf("nn: accuracy: scores must be rank 2, got %v", scores.Shape())
	}
	batch, classes := scores.Dim(0), scores.Dim(1)
	if len(labels) != batch {
		return 0, fmt.Errorf("nn: accuracy: %d labels for batch %d", len(labels), batch)
	}
	correct := 0
	sd := scores.Data()
	for i := 0; i < batch; i++ {
		row := sd[i*classes : (i+1)*classes]
		best, bi := math.Inf(-1), -1
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		if bi == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(batch), nil
}
