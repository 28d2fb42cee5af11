package dataset

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestGenerateShapesAndDeterminism(t *testing.T) {
	spec := Tiny(4, 100, 40, 7)
	train, test, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 100 || test.Len() != 40 {
		t.Fatalf("sizes = %d/%d", train.Len(), test.Len())
	}
	if train.PixelDim() != 64 {
		t.Fatalf("pixel dim = %d", train.PixelDim())
	}
	for _, s := range train.Samples {
		if len(s.X) != 64 {
			t.Fatalf("sample dim = %d", len(s.X))
		}
		if s.Label < 0 || s.Label >= 4 {
			t.Fatalf("label = %d", s.Label)
		}
	}
	// Same seed ⇒ identical data.
	train2, _, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train.Samples {
		if train.Samples[i].Label != train2.Samples[i].Label {
			t.Fatal("generation must be deterministic per seed")
		}
		for j := range train.Samples[i].X {
			if train.Samples[i].X[j] != train2.Samples[i].X[j] {
				t.Fatal("generation must be deterministic per seed")
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, _, err := Generate(Spec{Classes: 1, Channels: 1, Size: 4}); err == nil {
		t.Fatal("want error for 1 class")
	}
	if _, _, err := Generate(Spec{Classes: 2, Channels: 0, Size: 4}); err == nil {
		t.Fatal("want error for 0 channels")
	}
}

func TestMNISTAndCIFARSpecs(t *testing.T) {
	c := CIFAR10Like(10, 5, 1)
	if c.Channels != 3 || c.Size != 32 || c.Classes != 10 {
		t.Fatalf("cifar spec = %+v", c)
	}
	train, _, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if train.PixelDim() != 3*32*32 {
		t.Fatalf("cifar pixel dim = %d", train.PixelDim())
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Nearest-prototype classification on clean means must beat chance by
	// a wide margin — otherwise the learning experiments are meaningless.
	train, test, err := Generate(Tiny(4, 400, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Estimate class means from train.
	dim := train.PixelDim()
	means := make([][]float64, train.Classes)
	counts := make([]int, train.Classes)
	for i := range means {
		means[i] = make([]float64, dim)
	}
	for _, s := range train.Samples {
		for j, v := range s.X {
			means[s.Label][j] += v
		}
		counts[s.Label]++
	}
	for c := range means {
		if counts[c] == 0 {
			continue
		}
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range test.Samples {
		best, bi := math.Inf(1), -1
		for c := range means {
			d := 0.0
			for j, v := range s.X {
				d += (v - means[c][j]) * (v - means[c][j])
			}
			if d < best {
				best, bi = d, c
			}
		}
		if bi == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.9 {
		t.Fatalf("nearest-mean accuracy %.2f; classes not separable enough", acc)
	}
}

func TestBatch(t *testing.T) {
	train, _, err := Generate(Tiny(3, 20, 5, 11))
	if err != nil {
		t.Fatal(err)
	}
	x, labels, err := train.Batch(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Shape(); got[0] != 4 || got[1] != 1 || got[2] != 8 || got[3] != 8 {
		t.Fatalf("batch shape = %v", got)
	}
	if len(labels) != 4 || labels[0] != train.Samples[2].Label {
		t.Fatalf("labels = %v", labels)
	}
	if x.Data()[0] != train.Samples[2].X[0] {
		t.Fatal("batch pixels must match sample")
	}
	if _, _, err := train.Batch(5, 5); err == nil {
		t.Fatal("want empty-range error")
	}
	if _, _, err := train.Batch(-1, 3); err == nil {
		t.Fatal("want negative-range error")
	}
}

func TestBatchInto(t *testing.T) {
	train, _, err := Generate(Tiny(3, 20, 5, 11))
	if err != nil {
		t.Fatal(err)
	}
	want, wantLabels, err := train.Batch(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Image-shaped and flat buffers both take the batch; stale contents
	// are overwritten.
	for _, x := range []*tensor.Tensor{tensor.New(4, 1, 8, 8), tensor.New(4, 64)} {
		x.Fill(-1)
		labels := []int{9, 9, 9, 9}
		if err := train.BatchInto(x, labels, 3, 7); err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data() {
			if x.Data()[i] != v {
				t.Fatalf("shape %v: pixel %d = %v, want %v", x.Shape(), i, x.Data()[i], v)
			}
		}
		for i, l := range wantLabels {
			if labels[i] != l {
				t.Fatalf("labels = %v, want %v", labels, wantLabels)
			}
		}
	}
	if err := train.BatchInto(tensor.New(3, 1, 8, 8), make([]int, 4), 3, 7); err == nil {
		t.Fatal("want error for a buffer of the wrong batch size")
	}
	if err := train.BatchInto(tensor.New(4, 1, 8, 8), make([]int, 3), 3, 7); err == nil {
		t.Fatal("want error for too few labels")
	}
	if err := train.BatchInto(tensor.New(4, 1, 8, 8), make([]int, 4), 18, 22); err == nil {
		t.Fatal("want range error")
	}
}

func TestSubsetAndShuffle(t *testing.T) {
	train, _, err := Generate(Tiny(3, 30, 5, 13))
	if err != nil {
		t.Fatal(err)
	}
	sub := train.Subset([]int{1, 3, 5})
	if sub.Len() != 3 || sub.Samples[1].Label != train.Samples[3].Label {
		t.Fatal("subset broken")
	}
	before := make([]int, train.Len())
	for i, s := range train.Samples {
		before[i] = s.Label
	}
	train.Shuffle(rand.New(rand.NewSource(1)))
	after := make([]int, train.Len())
	counts := map[int]int{}
	for i, s := range train.Samples {
		after[i] = s.Label
		counts[s.Label]++
	}
	wantCounts := map[int]int{}
	for _, l := range before {
		wantCounts[l]++
	}
	for k, v := range wantCounts {
		if counts[k] != v {
			t.Fatal("shuffle must preserve multiset of labels")
		}
	}
}

func TestPartitionIID(t *testing.T) {
	train, _, err := Generate(Tiny(5, 500, 10, 17))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	parts, err := Partition(train, 10, IID, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 10 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() != 50 {
			t.Fatalf("IID partition size = %d, want 50", p.Len())
		}
		// Every class should appear with roughly uniform frequency.
		for c, n := range p.ClassCounts() {
			if n == 0 {
				t.Fatalf("IID partition missing class %d", c)
			}
		}
	}
	if total != 500 {
		t.Fatalf("total = %d", total)
	}
}

func TestPartitionNonIID0(t *testing.T) {
	train, _, err := Generate(Tiny(6, 600, 10, 19))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	parts, err := Partition(train, 6, NonIID0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		nonzero := 0
		for _, n := range p.ClassCounts() {
			if n > 0 {
				nonzero++
			}
		}
		if nonzero != 2 {
			t.Fatalf("peer %d holds %d classes under Non-IID(0%%), want exactly 2", i, nonzero)
		}
	}
}

func TestPartitionNonIID5(t *testing.T) {
	train, _, err := Generate(Tiny(6, 1200, 10, 23))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err := Partition(train, 4, NonIID5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		counts := p.ClassCounts()
		// Main two classes should hold ~95% of samples.
		c := append([]int(nil), counts...)
		// top-2 sum
		top1, top2 := 0, 0
		for _, n := range c {
			if n > top1 {
				top1, top2 = n, top1
			} else if n > top2 {
				top2 = n
			}
		}
		frac := float64(top1+top2) / float64(p.Len())
		if frac < 0.9 || frac > 0.99 {
			t.Fatalf("peer %d main fraction = %.3f, want ≈ 0.95", i, frac)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	train, _, err := Generate(Tiny(3, 10, 2, 29))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if _, err := Partition(train, 0, IID, rng); err == nil {
		t.Fatal("want error for 0 peers")
	}
	if _, err := Partition(train, 100, IID, rng); err == nil {
		t.Fatal("want error for more peers than samples")
	}
	two := &Dataset{Channels: 1, Size: 2, Classes: 2, Samples: train.Samples}
	if _, err := Partition(two, 2, NonIID0, rng); err == nil {
		t.Fatal("want error for non-IID with 2 classes")
	}
}

func TestDistributionStringAndParse(t *testing.T) {
	for _, d := range []Distribution{IID, NonIID5, NonIID0} {
		if d.String() == "" {
			t.Fatal("empty string")
		}
	}
	if Distribution(42).String() == "" {
		t.Fatal("unknown distribution must still render")
	}
}
