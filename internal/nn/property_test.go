package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// Property: softmax rows are probability distributions for any finite
// logits, including extreme magnitudes.
func TestSoftmaxRowsAreDistributions(t *testing.T) {
	var l softmaxCrossEntropy
	f := func(seed int64, scaleRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, float64(scaleRaw%7)) // 1 .. 1e6
		logits := tensor.New(4, 5)
		for i := range logits.Data() {
			logits.Data()[i] = rng.NormFloat64() * scale
		}
		labels := []int{0, 1, 2, 3}
		loss, probs, err := l.Forward(logits, labels)
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			return false
		}
		pd := probs.Data()
		for r := 0; r < 4; r++ {
			sum := 0.0
			for c := 0; c < 5; c++ {
				p := pd[r*5+c]
				if p < 0 || p > 1 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the loss gradient sums to zero over each row (softmax−onehot
// has zero row sum), so total "probability mass" is conserved.
func TestLossGradientRowsSumToZero(t *testing.T) {
	var l softmaxCrossEntropy
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := tensor.New(3, 4)
		for i := range logits.Data() {
			logits.Data()[i] = rng.NormFloat64() * 3
		}
		labels := []int{0, 1, 2}
		_, probs, err := l.Forward(logits, labels)
		if err != nil {
			return false
		}
		grad, err := l.Backward(probs, labels)
		if err != nil {
			return false
		}
		gd := grad.Data()
		for r := 0; r < 3; r++ {
			sum := 0.0
			for c := 0; c < 4; c++ {
				sum += gd[r*4+c]
			}
			if math.Abs(sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: WeightVector/SetWeightVector round-trips arbitrary vectors.
func TestWeightVectorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MLP(3, []int{4}, 2, rng)
		w := make([]float64, m.ParamCount())
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if err := m.SetWeightVector(w); err != nil {
			return false
		}
		got := m.WeightVector()
		for i := range w {
			if got[i] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: relu is idempotent and non-negative.
func TestReLUProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1, r2 := newReLU(), newReLU()
		x := tensor.New(2, 8)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64() * 10
		}
		y1, err := r1.Forward(x, false)
		if err != nil {
			return false
		}
		y2, err := r2.Forward(y1, false)
		if err != nil {
			return false
		}
		for i, v := range y1.Data() {
			if v < 0 || y2.Data()[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
