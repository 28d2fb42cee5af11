package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func TestWeightedAverageKnown(t *testing.T) {
	models := [][]float64{{1, 2}, {3, 4}}
	avg, err := FedAvg{}.Aggregate(models, []float64{1, 3})
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
	if _, err := (FedAvg{}).Aggregate(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := (FedAvg{}).Aggregate([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want count-mismatch error")
	}
	if _, err := (FedAvg{}).Aggregate([][]float64{{1}}, nil); err == nil {
		t.Fatal("want missing-counts error")
	}
	if _, err := (FedAvg{}).Aggregate([][]float64{{1}, {1, 2}}, []float64{1, 1}); err == nil {
		t.Fatal("want dim-mismatch error")
	}
	if _, err := (FedAvg{}).Aggregate([][]float64{{1}}, []float64{-1}); err == nil {
		t.Fatal("want negative-count error")
	}
	if _, err := (FedAvg{}).Aggregate([][]float64{{1}}, []float64{0}); err == nil {
		t.Fatal("want zero-total error")
	}
}

func TestWeightedAverageRejectsNonFiniteCounts(t *testing.T) {
	for _, tc := range []struct {
		count float64
		ok    bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{2.5, true},
	} {
		avg, err := FedAvg{}.Aggregate([][]float64{{1, 2}, {3, 4}}, []float64{1, tc.count})
		if (err == nil) != tc.ok {
			t.Errorf("count %v: average %v, error %v", tc.count, avg, err)
		}
	}
}

// untiledWeightedAverage is FedAvg's sum as it was before the
// tiles: one pass over out per model.
func untiledWeightedAverage(models [][]float64, counts []float64) []float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(models[0]))
	for i, m := range models {
		f := counts[i] / total
		if f == 0 {
			continue
		}
		for j, v := range m {
			out[j] += f * v
		}
	}
	return out
}

// sameBits compares two results bit for bit, except that any two NaNs
// match: when both operands of an add are NaN, which payload the sum
// carries depends on the operand order the compiler picks for the
// commutative add, which neither loop controls.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// tileEdgeDims are the dimensions a tiled kernel is checked at: one
// coordinate, a tile short by one, one tile, one over, three tiles with a
// ragged tail, and 64 tiles with one, past the stream threshold, so an
// AVX2 CPU checks the stream body there and the Go body everywhere else.
var tileEdgeDims = []int{1, tensor.Tile - 1, tensor.Tile, tensor.Tile + 1, 3*tensor.Tile + 5, 64*tensor.Tile + 5}

// plant writes −0 and then +Inf, NaN and −Inf into the four coordinates
// on each side of every tile boundary of v and of its two ends, where v
// has them; shift rotates the three non-finite values.
func plant(v []float64, shift int) {
	odd := [3]float64{math.Inf(1), math.NaN(), math.Inf(-1)}
	for b := 0; ; b += tensor.Tile {
		b = min(b, len(v))
		for _, side := range []int{b - 4, b} {
			for o := 0; o < 4; o++ {
				if i := side + o; i >= 0 && i < len(v) {
					v[i] = math.Copysign(0, -1)
					if o > 0 {
						v[i] = odd[(o+shift)%3]
					}
				}
			}
		}
		if b == len(v) {
			return
		}
	}
}

// TestTiledWeightedAverageMatchesUntiled: FedAvg adds every
// model into one tile of out before it moves to the next, or streams a
// long out past the caches. Around every tile boundary, with −0, ±Inf
// and NaN planted on both sides of it in every model — differently per
// model, so +Inf meets −Inf — the average is the untiled loop's bit for
// bit. Coordinate 0, −0 in every model,
// still averages to +0, which also shows the all-NaN model of count 0
// is still skipped.
func TestTiledWeightedAverageMatchesUntiled(t *testing.T) {
	counts := []float64{3, 0, 1.5, 7}
	for _, dim := range tileEdgeDims {
		r := rand.New(rand.NewSource(int64(dim)))
		models := make([][]float64, len(counts))
		for i := range models {
			models[i] = make([]float64, dim)
			for j := range models[i] {
				models[i][j] = r.NormFloat64()
			}
			plant(models[i], i)
		}
		for j := range models[1] {
			models[1][j] = math.NaN()
		}
		got, err := FedAvg{}.Aggregate(models, counts)
		if err != nil {
			t.Fatal(err)
		}
		want := untiledWeightedAverage(models, counts)
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("dim %d: out[%d] = %v, untiled %v", dim, j, got[j], want[j])
			}
		}
		if dim > 1 && math.Float64bits(got[0]) != 0 {
			t.Fatalf("dim %d: an all −0 coordinate averaged to %v, want +0", dim, got[0])
		}
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
		avg, err := FedAvg{}.Aggregate([][]float64{{a}, {b}, {c}}, []float64{1, 1, 1})
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
	w, err := FedAvg{}.Aggregate(models, counts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := FedAvg{}.Aggregate(models, []float64{1, 1, 1, 1})
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
		global, err = FedAvg{}.Aggregate(models, counts)
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
