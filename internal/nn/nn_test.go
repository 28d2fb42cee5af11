package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randTensor(r *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = r.NormFloat64()
	}
	return t
}

// numGrad estimates dLoss/dw by central differences for one scalar weight.
func numGrad(t *testing.T, m *Model, x *tensor.Tensor, labels []int, w []float64, i int) float64 {
	t.Helper()
	const h = 1e-5
	orig := w[i]
	w[i] = orig + h
	lp, err := m.Loss(x.Clone(), labels)
	if err != nil {
		t.Fatal(err)
	}
	w[i] = orig - h
	lm, err := m.Loss(x.Clone(), labels)
	if err != nil {
		t.Fatal(err)
	}
	w[i] = orig
	return (lp - lm) / (2 * h)
}

func checkGradients(t *testing.T, m *Model, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	m.ZeroGrad()
	if _, err := m.Loss(x.Clone(), labels); err != nil {
		t.Fatal(err)
	}
	if err := m.Backward(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for _, p := range m.Params() {
		w, g := p.W.Data(), p.G.Data()
		// Spot-check a handful of coordinates per parameter.
		for c := 0; c < 5 && c < len(w); c++ {
			i := r.Intn(len(w))
			want := numGrad(t, m, x, labels, w, i)
			if math.Abs(g[i]-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, g[i], want)
			}
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	copy(d.w.W.Data(), []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.b.W.Data(), []float64{10, 20})
	x := tensor.MustFromSlice([]float64{1, 1}, 1, 2)
	y, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float64{13, 27}, 1, 2)
	if !tensor.Equal(y, want) {
		t.Fatalf("dense forward = %v, want %v", y, want)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewModel(NewDense(4, 6, rng), NewReLU(), NewDense(6, 3, rng))
	x := randTensor(rng, 5, 4)
	labels := []int{0, 1, 2, 0, 1}
	checkGradients(t, m, x, labels, 1e-4)
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewModel(
		NewConv2D(2, 3, 3, PadSame, rng),
		NewReLU(),
		NewConv2D(3, 2, 3, PadValid, rng),
		NewFlatten(),
		NewDense(2*4*4, 3, rng),
	)
	x := randTensor(rng, 2, 2, 6, 6)
	labels := []int{0, 2}
	checkGradients(t, m, x, labels, 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewModel(
		NewConv2D(1, 2, 3, PadSame, rng),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*3*3, 2, rng),
	)
	x := randTensor(rng, 2, 1, 6, 6)
	labels := []int{0, 1}
	checkGradients(t, m, x, labels, 1e-4)
}

func TestConvForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(1, 1, 3, PadValid, rng)
	// Averaging kernel, zero bias.
	for i := range c.w.W.Data() {
		c.w.W.Data()[i] = 1.0 / 9.0
	}
	c.b.W.Zero()
	x := tensor.New(1, 1, 3, 3)
	x.Fill(9)
	y, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != 1 || math.Abs(y.Data()[0]-9) > 1e-12 {
		t.Fatalf("conv forward = %v, want [9]", y)
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2D(2)
	x := tensor.MustFromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, err := p.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float64{6, 8, 14, 16}, 1, 1, 2, 2)
	if !tensor.Equal(y, want) {
		t.Fatalf("maxpool = %v, want %v", y, want)
	}
}

func TestMaxPoolFloorSemantics(t *testing.T) {
	p := NewMaxPool2D(2)
	x := tensor.New(1, 1, 5, 5) // odd size: last row/col dropped
	y, err := p.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(2) != 2 || y.Dim(3) != 2 {
		t.Fatalf("pooled dims = %v, want 2x2", y.Shape())
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(0.5, rng)
	x := tensor.New(1, 1000)
	x.Fill(1)
	yEval, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(yEval, x) {
		t.Fatal("dropout must be identity in eval mode")
	}
	yTrain, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range yTrain.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // inverted dropout scale 1/(1-0.5)
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at rate 0.5", zeros)
	}
	// Expectation preserved within sampling error.
	mean := yTrain.Sum() / 1000
	if math.Abs(mean-1) > 0.15 {
		t.Fatalf("dropout mean = %v, want ≈ 1", mean)
	}
}

func TestDropoutRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for rate 1.0")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(1)))
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	var l SoftmaxCrossEntropy
	// Uniform logits: loss = ln(classes).
	logits := tensor.New(2, 4)
	loss, probs, err := l.Forward(logits, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln 4", loss)
	}
	for _, p := range probs.Data() {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("probs = %v, want uniform", probs)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	var l SoftmaxCrossEntropy
	logits := tensor.MustFromSlice([]float64{1000, 0, -1000}, 1, 3)
	loss, probs, err := l.Forward(logits, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v with extreme logits", loss)
	}
	if math.Abs(probs.At(0, 0)-1) > 1e-9 {
		t.Fatalf("probs = %v", probs)
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	var l SoftmaxCrossEntropy
	if _, _, err := l.Forward(tensor.New(2, 3), []int{0}); err == nil {
		t.Fatal("want label-count error")
	}
	if _, _, err := l.Forward(tensor.New(1, 3), []int{7}); err == nil {
		t.Fatal("want label-range error")
	}
	if _, err := Accuracy(tensor.New(3), nil); err == nil {
		t.Fatal("want rank error")
	}
}

func TestAccuracy(t *testing.T) {
	scores := tensor.MustFromSlice([]float64{
		0.9, 0.1,
		0.2, 0.8,
		0.6, 0.4,
	}, 3, 2)
	acc, err := Accuracy(scores, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-2.0/3.0) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestPaperCNNParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := PaperCNN(3, 32, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports "1.25M parameters" for its CIFAR-10 model; the
	// exact count of this architecture is 1,250,858.
	if got := m.ParamCount(); got != 1250858 {
		t.Fatalf("PaperCNN params = %d, want 1250858", got)
	}
}

func TestPaperCNNForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := PaperCNN(1, 14, 10, rng) // smallest valid size
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.Forward(tensor.New(2, 1, 14, 14), false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("output shape = %v", y.Shape())
	}
	if _, err := PaperCNN(1, 8, 10, rng); err == nil {
		t.Fatal("want error for too-small input")
	}
}

func TestWeightVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := MLP(4, []int{8}, 3, rng)
	b := MLP(4, []int{8}, 3, rng)
	w := a.WeightVector()
	if len(w) != a.ParamCount() {
		t.Fatalf("weight vector length %d, want %d", len(w), a.ParamCount())
	}
	if err := b.SetWeightVector(w); err != nil {
		t.Fatal(err)
	}
	x := randTensor(rng, 3, 4)
	ya, err := a.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(ya, yb, 1e-12) {
		t.Fatal("models with identical weights must agree")
	}
	if err := b.SetWeightVector(w[:len(w)-1]); err == nil {
		t.Fatal("want length error")
	}
}

func TestWeightVectorIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := MLP(2, nil, 2, rng)
	w := m.WeightVector()
	w[0] += 100
	if m.WeightVector()[0] == w[0] {
		t.Fatal("WeightVector must return a copy")
	}
}

func TestBackwardBeforeLossErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := MLP(2, nil, 2, rng)
	if err := m.Backward(); err == nil {
		t.Fatal("want error calling Backward before Loss")
	}
}

func TestTinyCNNTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := TinyCNN(1, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Two linearly separable image classes: bright vs dark.
	x := tensor.New(8, 1, 8, 8)
	labels := make([]int, 8)
	for i := 0; i < 8; i++ {
		v := -1.0
		if i%2 == 0 {
			v, labels[i] = 1.0, 1
		}
		for j := 0; j < 64; j++ {
			x.Data()[i*64+j] = v + 0.1*rng.NormFloat64()
		}
	}
	first := -1.0
	var last float64
	for step := 0; step < 60; step++ {
		m.ZeroGrad()
		loss, err := m.Loss(x.Clone(), labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Backward(); err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Params() {
			for i := range p.W.Data() {
				p.W.Data()[i] -= 0.05 * p.G.Data()[i]
			}
		}
		if first < 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestModelSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := MLP(2, []int{3}, 2, rng)
	s := m.Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
}

// TestMaxPoolDivergedInput: a window in which nothing compares greater
// than anything — all NaN, or all −Inf — still has an argmax, so Backward
// routes the gradient instead of indexing with −1, and the NaN reaches
// the output.
func TestMaxPoolDivergedInput(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		p := NewMaxPool2D(2)
		x := tensor.New(1, 1, 2, 2)
		x.Fill(v)
		y, err := p.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := y.Data()[0]; got != v && !(got != got && v != v) {
			t.Fatalf("maxpool of all-%v window = %v", v, got)
		}
		g := tensor.New(1, 1, 1, 1)
		g.Fill(3)
		dx, err := p.Backward(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{3, 0, 0, 0}; !tensor.Equal(dx, tensor.MustFromSlice(want, 1, 1, 2, 2)) {
			t.Fatalf("maxpool gradient of all-%v window = %v, want %v", v, dx.Data(), want)
		}
	}
}
