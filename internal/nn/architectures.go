package nn

import (
	"fmt"
	"math/rand"
)

// PaperCNN builds the CNN of the paper's Fig. 5 for inputs of shape
// [batch, channels, size, size]: two blocks of (same-pad conv, relu,
// valid-pad conv, relu, 2×2 max-pool, dropout 0.25) with 32 then 64
// filters, followed by flatten, dense(512), relu, dropout(0.5) and a
// dense output over `classes` logits (softmax lives in the loss).
//
// For CIFAR-10 (channels=3, size=32, classes=10) the parameter count is
// 1,250,858 — the paper's "1.25M parameters".
func PaperCNN(channels, size, classes int, rng *rand.Rand) (*Model, error) {
	// Block 1: size → size (same) → size−2 (valid) → (size−2)/2 (pool).
	s1 := (size - 2) / 2
	// Block 2: s1 → s1 (same) → s1−2 (valid) → (s1−2)/2 (pool).
	s2 := (s1 - 2) / 2
	if s2 < 1 {
		return nil, fmt.Errorf("nn: PaperCNN: input size %d too small (need ≥ 14)", size)
	}
	return newModel(
		newConv2D(channels, 32, 3, padSame, rng),
		newReLU(),
		newConv2D(32, 32, 3, padValid, rng),
		newReLU(),
		newMaxPool2D(2),
		newDropout(0.25, rng),

		newConv2D(32, 64, 3, padSame, rng),
		newReLU(),
		newConv2D(64, 64, 3, padValid, rng),
		newReLU(),
		newMaxPool2D(2),
		newDropout(0.25, rng),

		newFlatten(),
		newDense(64*s2*s2, 512, rng),
		newReLU(),
		newDropout(0.5, rng),
		newDense(512, classes, rng),
	), nil
}

// MLP builds a small multi-layer perceptron over flattened inputs. The
// accuracy/loss experiments (Figs. 6–9) default to this model at reduced
// input sizes so that 1000-round federated sweeps complete quickly; the
// aggregation protocols are agnostic to the architecture, exchanging only
// the flat weight vector.
func MLP(in int, hidden []int, classes int, rng *rand.Rand) *Model {
	var layers []layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, newDense(prev, h, rng), newReLU())
		prev = h
	}
	layers = append(layers, newDense(prev, classes, rng))
	return newModel(layers...)
}

// TinyCNN builds a reduced convolutional model with the paper CNN's layer
// pattern at a fraction of the width, for integration tests that exercise
// the convolutional path end to end without the full 1.25M parameters.
func TinyCNN(channels, size, classes int, rng *rand.Rand) (*Model, error) {
	s1 := (size - 2) / 2
	if s1 < 1 {
		return nil, fmt.Errorf("nn: TinyCNN: input size %d too small (need ≥ 4)", size)
	}
	return newModel(
		newConv2D(channels, 4, 3, padSame, rng),
		newReLU(),
		newConv2D(4, 4, 3, padValid, rng),
		newReLU(),
		newMaxPool2D(2),
		newDropout(0.25, rng),
		newFlatten(),
		newDense(4*s1*s1, 32, rng),
		newReLU(),
		newDense(32, classes, rng),
	), nil
}
