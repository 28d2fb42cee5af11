package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// TestTrainStepsMatchLoweredConvs trains the same network twice from the
// same seed — once on the direct convolution kernels, once with every
// Conv2D swapped for the im2col + MatMul oracle — through three full
// steps (dropout sampling, loss, backward, Adam update) and requires the
// same loss bits and the same weight bits after every step: the direct
// kernels change how a training step is computed, never what it
// computes.
func TestTrainStepsMatchLoweredConvs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) (*nn.Model, error)
		batch int
	}{
		{"TinyCNN", func(r *rand.Rand) (*nn.Model, error) { return nn.TinyCNN(3, 32, 10, r) }, 8},
		{"PaperCNN", func(r *rand.Rand) (*nn.Model, error) { return nn.PaperCNN(3, 32, 10, r) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := tc.build(rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := tc.build(rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			oracle := nn.WithLoweredConvs(twin)
			optD, optO := optim.NewAdam(1e-3), optim.NewAdam(1e-3)
			data := rand.New(rand.NewSource(22))
			for step := 0; step < 3; step++ {
				x := tensor.New(tc.batch, 3, 32, 32)
				for i, d := 0, x.Data(); i < len(d); i++ {
					d[i] = data.NormFloat64()
				}
				labels := make([]int, tc.batch)
				for i := range labels {
					labels[i] = data.Intn(10)
				}
				var loss [2]float64
				for i, side := range []struct {
					m   *nn.Model
					opt *optim.Adam
				}{{direct, optD}, {oracle, optO}} {
					side.m.ZeroGrad()
					if loss[i], err = side.m.Loss(x, labels); err != nil {
						t.Fatal(err)
					}
					if err := side.m.Backward(); err != nil {
						t.Fatal(err)
					}
					if err := side.opt.Step(side.m.Params()); err != nil {
						t.Fatal(err)
					}
				}
				if math.Float64bits(loss[0]) != math.Float64bits(loss[1]) {
					t.Fatalf("step %d: loss %v on the direct kernels, %v on the oracle", step, loss[0], loss[1])
				}
				wd, wo := direct.WeightVector(), oracle.WeightVector()
				diff := 0
				for i := range wo {
					if math.Float64bits(wd[i]) != math.Float64bits(wo[i]) {
						diff++
					}
				}
				if diff != 0 {
					t.Fatalf("step %d: %d of %d weights differ from the oracle path", step, diff, len(wo))
				}
			}
		})
	}
}
