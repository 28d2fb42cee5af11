package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/optim"
)

// TestPaperCNNRound runs the full-scale path: the paper's Fig. 5 CNN
// (1,250,858 parameters) takes a few Adam steps on the synthetic
// CIFAR-10 substitute, then three peers aggregate its whole weight
// vector in one 2-out-of-3 two-layer round. The figure drivers use
// smaller models so that long sweeps stay fast; nothing in the stack is
// limited to them.
func TestPaperCNNRound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and aggregates the 1.25M-weight model")
	}
	rng := rand.New(rand.NewSource(1))
	model, err := nn.PaperCNN(3, 32, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.ParamCount(); got != costmodel.PaperCNNParams {
		t.Fatalf("PaperCNN has %d parameters, want %d", got, costmodel.PaperCNNParams)
	}
	train, _, err := dataset.Generate(dataset.CIFAR10Like(64, 32, 2))
	if err != nil {
		t.Fatal(err)
	}
	opt := optim.NewAdam(1e-4) // the paper's optimizer and learning rate
	for step := 0; step < 4; step++ {
		lo := step * 8 % train.Len()
		x, labels, err := train.Batch(lo, lo+8)
		if err != nil {
			t.Fatal(err)
		}
		model.ZeroGrad()
		loss, err := model.Loss(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", step, loss)
		}
		if err := model.Backward(); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(model.Params()); err != nil {
			t.Fatal(err)
		}
	}

	w := model.WeightVector()
	sys, err := NewSystem(Config{Sizes: []int{3}, K: []int{2}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AggregateRound([][]float64{w, w, w}, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 5 at m=1, n=3, k=2: (9−6+2)·3 + 2 − 2 = 15 units of |w| = 8
	// bytes a weight.
	if want := int64(15 * 8 * costmodel.PaperCNNParams); res.Bytes != want {
		t.Errorf("round moved %d bytes, want %d", res.Bytes, want)
	}
	// The mean of three copies of w is w, up to the rounding of the
	// share sums.
	const tol = 1e-12
	for i, g := range res.Global {
		if d := math.Abs(g - w[i]); !(d <= tol) {
			t.Fatalf("global[%d] = %v, want %v within %g", i, g, w[i], tol)
		}
	}
	if err := model.SetWeightVector(res.Global); err != nil {
		t.Fatal(err)
	}
}
