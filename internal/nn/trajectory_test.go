package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// weightDigest is the SHA-256 of the model's weight vector, each weight's
// IEEE-754 bits little-endian, so a digest moves if any weight moves by
// one ulp or flips the sign of a zero.
func weightDigest(m *nn.Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.WeightVector() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingTrajectoriesAreGolden trains four models with Adam for a
// fixed number of full steps (dropout sampling, loss, backward, update)
// on seeded batches in which about a quarter of the inputs are exact
// zeros, and pins the SHA-256 of the weights each one ends at. Every
// kernel a training step runs — convolution, ReLU, max-pool, the Dense
// matmuls at both sizes, softmax, Adam — is on the path, so a kernel
// rewrite that reorders one floating-point operation anywhere fails
// here. The digests pin the arithmetic of a training step as it is:
// a faster kernel must reach them unchanged, at worker budgets 1 and 4
// alike and on both bodies of the convolution micro-kernels.
func TestTrainingTrajectoriesAreGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(*rand.Rand) (*nn.Model, error)
		input  []int // one sample's shape
		batch  int
		steps  int
		digest string
	}{
		{
			"TinyCNN", func(r *rand.Rand) (*nn.Model, error) { return nn.TinyCNN(3, 32, 10, r) },
			[]int{3, 32, 32}, 32, 15,
			"ae4eadb6e52f1288b4e52f9e1346f8481d3b28f8a5d3684a93dd63b9338ab9d2",
		},
		{
			"PaperCNN", func(r *rand.Rand) (*nn.Model, error) { return nn.PaperCNN(3, 32, 10, r) },
			[]int{3, 32, 32}, 4, 2,
			"8c373a3abb64d0289eaa34f0065a63e98d575190065ebda1d285057cac9b5e2b",
		},
		{
			// Big enough for the blocked matmul panels on its first layer.
			"MLP784", func(r *rand.Rand) (*nn.Model, error) { return nn.MLP(784, []int{128, 64}, 10, r), nil },
			[]int{784}, 32, 30,
			"811c60a3efde58fc3f58d50462966447e79b193cc54a923e0ad17d41d331cbf5",
		},
		{
			// Every product below parallelFlops: the serial matmul path.
			"MLP64", func(r *rand.Rand) (*nn.Model, error) { return nn.MLP(64, []int{32}, 10, r), nil },
			[]int{64}, 16, 30,
			"eddc7a51927db1a81eea6ed497726c5c8f12890502b1ca596677deef3182101a",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := tensor.Parallelism()
			t.Cleanup(func() { tensor.SetParallelism(old) })
			nn.EachConvBody(t, func(t *testing.T) {
				for _, budget := range []int{1, 4} {
					tensor.SetParallelism(budget)
					got := trainTrajectory(t, tc.build, tc.input, tc.batch, tc.steps)
					if got != tc.digest {
						t.Errorf("budget %d: weights after %d steps hash to %s, want %s", budget, tc.steps, got, tc.digest)
					}
				}
			})
		})
	}
}

// trainTrajectory builds a model from seed 31 and trains it with Adam
// for the given number of steps on fresh batches drawn from seed 32,
// returning the weight digest.
func trainTrajectory(t *testing.T, build func(*rand.Rand) (*nn.Model, error), input []int, batch, steps int) string {
	t.Helper()
	model, err := build(rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	opt := optim.NewAdam(1e-3)
	data := rand.New(rand.NewSource(32))
	x := tensor.New(append([]int{batch}, input...)...)
	labels := make([]int, batch)
	for step := 0; step < steps; step++ {
		for i, d := 0, x.Data(); i < len(d); i++ {
			if data.Intn(4) == 0 {
				d[i] = 0
			} else {
				d[i] = data.Float64()
			}
		}
		for i := range labels {
			labels[i] = data.Intn(10)
		}
		model.ZeroGrad()
		if _, err := model.Loss(x, labels); err != nil {
			t.Fatal(err)
		}
		if err := model.Backward(); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(model.Params()); err != nil {
			t.Fatal(err)
		}
	}
	return weightDigest(model)
}
