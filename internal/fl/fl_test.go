package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/optim"
)

func TestWeightedAverageKnown(t *testing.T) {
	models := [][]float64{{1, 2}, {3, 4}}
	avg, err := WeightedAverage(models, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 3.5}
	for i := range want {
		if math.Abs(avg[i]-want[i]) > 1e-12 {
			t.Fatalf("avg = %v, want %v", avg, want)
		}
	}
}

func TestWeightedAverageErrors(t *testing.T) {
	if _, err := WeightedAverage(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := WeightedAverage([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want count-mismatch error")
	}
	if _, err := WeightedAverage([][]float64{{1}, {1, 2}}, []float64{1, 1}); err == nil {
		t.Fatal("want dim-mismatch error")
	}
	if _, err := WeightedAverage([][]float64{{1}}, []float64{-1}); err == nil {
		t.Fatal("want negative-count error")
	}
	if _, err := WeightedAverage([][]float64{{1}}, []float64{0}); err == nil {
		t.Fatal("want zero-total error")
	}
}

func TestUniformAverageMatchesMean(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound magnitudes so the reference (a+b+c)/3 cannot overflow.
		bound := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		a, b, c = bound(a), bound(b), bound(c)
		avg, err := WeightedAverage([][]float64{{a}, {b}, {c}}, []float64{1, 1, 1})
		if err != nil {
			return false
		}
		return math.Abs(avg[0]-(a+b+c)/3) < 1e-9*(1+math.Abs(a)+math.Abs(b)+math.Abs(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FedAvg with equal counts must equal SAC's uniform average: the paper's
// claim that the two layers compose without changing the aggregate.
func TestWeightedEqualsUniformForEqualCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	models := make([][]float64, 4)
	counts := make([]float64, 4)
	for i := range models {
		models[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		counts[i] = 7
	}
	w, err := WeightedAverage(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := WeightedAverage(models, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(w[i]-u[i]) > 1e-12 {
			t.Fatal("weighted avg with equal counts must equal uniform avg")
		}
	}
}

func newTinyClient(t *testing.T, id int, data *dataset.Dataset, seed int64) *Client {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := nn.MLP(data.PixelDim(), []int{16}, data.Classes, rng)
	opt := optim.NewAdam(1e-3)
	return NewClient(id, model, opt, data,
		TrainConfig{Epochs: 1, BatchSize: 10, Flat: true}, rng)
}

func TestClientTrainRoundReducesLoss(t *testing.T) {
	train, test, err := dataset.Generate(dataset.Tiny(3, 120, 60, 42))
	if err != nil {
		t.Fatal(err)
	}
	c := newTinyClient(t, 0, train, 1)
	_, loss0, err := EvaluateModel(c.Model, test, c.Cfg.Flat)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if _, err := c.TrainRound(); err != nil {
			t.Fatal(err)
		}
	}
	acc, loss1, err := EvaluateModel(c.Model, test, c.Cfg.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if loss1 >= loss0 {
		t.Fatalf("loss did not decrease: %v → %v", loss0, loss1)
	}
	if acc < 0.5 {
		t.Fatalf("accuracy after training = %v", acc)
	}
}

func TestClientWeightsRoundTrip(t *testing.T) {
	train, _, err := dataset.Generate(dataset.Tiny(3, 30, 10, 43))
	if err != nil {
		t.Fatal(err)
	}
	a := newTinyClient(t, 0, train, 2)
	b := newTinyClient(t, 1, train, 3)
	if err := b.SetWeights(a.Weights()); err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("SetWeights must copy weights exactly")
		}
	}
	if a.SampleCount() != 30 {
		t.Fatalf("sample count = %d", a.SampleCount())
	}
}

func TestClientEmptyDataErrors(t *testing.T) {
	train, _, err := dataset.Generate(dataset.Tiny(3, 30, 10, 44))
	if err != nil {
		t.Fatal(err)
	}
	empty := train.Subset(nil)
	c := newTinyClient(t, 0, empty, 4)
	if _, err := c.TrainRound(); err == nil {
		t.Fatal("want error training on empty shard")
	}
}

func TestEvaluateModelEmptyTest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := nn.MLP(4, nil, 2, rng)
	if _, _, err := EvaluateModel(m, &dataset.Dataset{Channels: 1, Size: 2, Classes: 2}, true); err == nil {
		t.Fatal("want error for empty test set")
	}
}

// Federated smoke test: 4 IID clients + FedAvg beat a single client
// trained on only a quarter of the data... at minimum, they must learn.
func TestFedAvgRoundsImproveGlobalModel(t *testing.T) {
	train, test, err := dataset.Generate(dataset.Tiny(4, 400, 100, 45))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	parts, err := dataset.Partition(train, 4, dataset.IID, rng)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = newTinyClient(t, i, parts[i], int64(10+i))
	}
	global := clients[0].Weights()
	for r := 0; r < 12; r++ {
		models := make([][]float64, len(clients))
		counts := make([]float64, len(clients))
		for i, c := range clients {
			if err := c.SetWeights(global); err != nil {
				t.Fatal(err)
			}
			if _, err := c.TrainRound(); err != nil {
				t.Fatal(err)
			}
			models[i] = c.Weights()
			counts[i] = float64(c.SampleCount())
		}
		global, err = WeightedAverage(models, counts)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := clients[0].SetWeights(global); err != nil {
		t.Fatal(err)
	}
	acc, _, err := EvaluateModel(clients[0].Model, test, clients[0].Cfg.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("federated accuracy = %v, want ≥ 0.6", acc)
	}
}

// TestTrainRoundReusedBatchMatchesFreshBatches pins the client-owned
// minibatch buffer: two rounds through TrainRound, which refills one
// buffer per step, leave exactly the weights and losses of the same loop
// fed a freshly allocated Batch every step — on the
// convolutional path (whose first layer reads its input until Backward)
// and on the flat one, with a short last batch in every epoch.
func TestTrainRoundReusedBatchMatchesFreshBatches(t *testing.T) {
	for _, flat := range []bool{false, true} {
		train, _, err := dataset.Generate(dataset.Tiny(3, 50, 10, 7))
		if err != nil {
			t.Fatal(err)
		}
		build := func() *Client {
			rng := rand.New(rand.NewSource(3))
			model := nn.MLP(train.PixelDim(), []int{8}, train.Classes, rng)
			if !flat {
				if model, err = nn.TinyCNN(train.Channels, train.Size, train.Classes, rng); err != nil {
					t.Fatal(err)
				}
			}
			data := train.Subset(rand.New(rand.NewSource(4)).Perm(train.Len()))
			return NewClient(0, model, optim.NewAdam(1e-3), data,
				TrainConfig{Epochs: 2, BatchSize: 16, Flat: flat}, rand.New(rand.NewSource(5)))
		}
		reused, fresh := build(), build()
		for round := 0; round < 2; round++ {
			got, err := reused.TrainRound()
			if err != nil {
				t.Fatal(err)
			}
			total, steps := 0.0, 0
			for e := 0; e < fresh.Cfg.Epochs; e++ {
				fresh.Data.Shuffle(fresh.rng)
				for lo := 0; lo < fresh.Data.Len(); lo += fresh.Cfg.BatchSize {
					hi := min(lo+fresh.Cfg.BatchSize, fresh.Data.Len())
					x, labels, err := fresh.Data.Batch(lo, hi)
					if err == nil && flat {
						x, err = x.Reshape(hi-lo, fresh.Data.PixelDim())
					}
					if err != nil {
						t.Fatal(err)
					}
					fresh.Model.ZeroGrad()
					loss, err := fresh.Model.Loss(x, labels)
					if err != nil {
						t.Fatal(err)
					}
					if err := fresh.Model.Backward(); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Opt.Step(fresh.Model.Params()); err != nil {
						t.Fatal(err)
					}
					total += loss
					steps++
				}
			}
			if want := total / float64(steps); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("flat=%v round %d: loss %v with the reused buffer, %v with fresh batches", flat, round, got, want)
			}
			gw, ww := reused.Weights(), fresh.Weights()
			for i := range ww {
				if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
					t.Fatalf("flat=%v round %d: weight %d is %v with the reused buffer, %v with fresh batches", flat, round, i, gw[i], ww[i])
				}
			}
		}
	}
}
