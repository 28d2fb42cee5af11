package nn_test

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// benchTrainStep times full training steps (zero-grad, forward, loss,
// backward, Adam update) of model on one fixed batch of 3×32×32 inputs.
func benchTrainStep(b *testing.B, model *nn.Model, lr float64, batch int, rng *rand.Rand) {
	opt := optim.NewAdam(lr)
	x := tensor.New(batch, 3, 32, 32)
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = rng.Float64()
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ZeroGrad()
		if _, err := model.Loss(x, labels); err != nil {
			b.Fatal(err)
		}
		if err := model.Backward(); err != nil {
			b.Fatal(err)
		}
		if err := opt.Step(model.Params()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperCNNTrainStep measures one full training step of the
// paper's CNN at batch 8 — the hot path of every federated round.
// Allocations should stay flat in steady state thanks to the layer-owned
// scratch workspaces.
func BenchmarkPaperCNNTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model, err := nn.PaperCNN(3, 32, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchTrainStep(b, model, 1e-4, 8, rng)
}

// BenchmarkTinyCNNTrainStep is the same step on the reduced CNN at batch
// 32 — the shape of every local-training step in the round benchmark's
// `train` workload. The narrow (4-channel) convolutions take most of it;
// in a serial CPU profile on a 2-vCPU Xeon the Dense(900→32) products
// were 14 % of a step on the Go matmul body and are 5 % on the AVX2 one.
func BenchmarkTinyCNNTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model, err := nn.TinyCNN(3, 32, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchTrainStep(b, model, 1e-3, 32, rng)
}
