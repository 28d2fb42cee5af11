// Package dataset provides the image-classification workloads for the
// federated-learning experiments.
//
// The paper evaluates on MNIST and CIFAR-10. This module must run offline,
// so those are substituted with synthetic class-conditional Gaussian image
// datasets at the same shapes (28×28×1 and 32×32×3): each of the 10 classes
// has a fixed smooth prototype pattern and samples are the prototype plus
// i.i.d. Gaussian pixel noise. The substitution preserves what the
// experiments measure — a learnable multi-class task whose per-peer label
// distribution can be skewed exactly as in the paper:
//
//   - IID: each peer's training set is an i.i.d. sample of all classes.
//   - Non-IID (5%): 95% of each peer's data comes from two "main" classes
//     chosen for that peer; 5% from the remaining classes.
//   - Non-IID (0%): each peer only holds its two main classes.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Sample is one labelled image, stored as a flat [channels·size·size]
// pixel vector.
type Sample struct {
	X     []float64
	Label int
}

// Dataset is a labelled image collection with fixed geometry.
type Dataset struct {
	Channels int
	Size     int // images are Size×Size
	Classes  int
	Samples  []Sample
}

// Spec describes a synthetic dataset to generate.
type Spec struct {
	Channels  int
	Size      int
	Classes   int
	Train     int     // number of training samples
	Test      int     // number of test samples
	Noise     float64 // pixel noise std-dev; higher is harder
	Seed      int64
	Sharpness float64 // prototype contrast; default 1
}

// CIFAR10Like returns the spec of the CIFAR-10 substitute: 32×32 RGB,
// 10 classes, with more noise (CIFAR-10 is the harder dataset).
func CIFAR10Like(train, test int, seed int64) Spec {
	return Spec{Channels: 3, Size: 32, Classes: 10, Train: train, Test: test, Noise: 0.55, Seed: seed}
}

// Tiny returns a small spec for fast tests and CI-scale experiment runs:
// 8×8 grayscale, `classes` classes.
func Tiny(classes, train, test int, seed int64) Spec {
	return Spec{Channels: 1, Size: 8, Classes: classes, Train: train, Test: test, Noise: 0.45, Seed: seed}
}

// Generate builds train and test datasets from the spec. Prototypes are
// derived deterministically from the seed, so two calls with the same spec
// produce samples from an identical underlying distribution.
func Generate(s Spec) (train, test *Dataset, err error) {
	if s.Classes < 2 {
		return nil, nil, fmt.Errorf("dataset: need ≥ 2 classes, got %d", s.Classes)
	}
	if s.Channels < 1 || s.Size < 1 {
		return nil, nil, fmt.Errorf("dataset: bad geometry %dx%dx%d", s.Channels, s.Size, s.Size)
	}
	if s.Sharpness == 0 {
		s.Sharpness = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))
	protos := prototypes(s, rng)
	mk := func(n int) *Dataset {
		d := &Dataset{Channels: s.Channels, Size: s.Size, Classes: s.Classes}
		d.Samples = make([]Sample, n)
		for i := range d.Samples {
			label := rng.Intn(s.Classes)
			x := make([]float64, len(protos[label]))
			for j, p := range protos[label] {
				x[j] = p + s.Noise*rng.NormFloat64()
			}
			d.Samples[i] = Sample{X: x, Label: label}
		}
		return d
	}
	return mk(s.Train), mk(s.Test), nil
}

// prototypes builds one smooth pattern per class: a sum of a few random
// 2-D sinusoids, giving spatial structure that convolutions can exploit.
func prototypes(s Spec, rng *rand.Rand) [][]float64 {
	dim := s.Channels * s.Size * s.Size
	out := make([][]float64, s.Classes)
	for c := range out {
		p := make([]float64, dim)
		const waves = 3
		type wave struct{ fx, fy, ph, amp float64 }
		ws := make([]wave, waves)
		for i := range ws {
			ws[i] = wave{
				fx:  (rng.Float64()*2 + 0.5) * math.Pi / float64(s.Size),
				fy:  (rng.Float64()*2 + 0.5) * math.Pi / float64(s.Size),
				ph:  rng.Float64() * 2 * math.Pi,
				amp: (0.5 + rng.Float64()) * s.Sharpness / waves,
			}
		}
		for ch := 0; ch < s.Channels; ch++ {
			chShift := float64(ch) * 1.7
			for y := 0; y < s.Size; y++ {
				for x := 0; x < s.Size; x++ {
					v := 0.0
					for _, w := range ws {
						v += w.amp * math.Sin(w.fx*float64(x)+w.fy*float64(y)+w.ph+chShift)
					}
					p[(ch*s.Size+y)*s.Size+x] = v
				}
			}
		}
		out[c] = p
	}
	return out
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// PixelDim returns the flat pixel-vector length of each sample.
func (d *Dataset) PixelDim() int { return d.Channels * d.Size * d.Size }

// Subset returns a dataset view holding the samples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{Channels: d.Channels, Size: d.Size, Classes: d.Classes}
	s.Samples = make([]Sample, len(idx))
	for i, j := range idx {
		s.Samples[i] = d.Samples[j]
	}
	return s
}

// Shuffle permutes samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

func (d *Dataset) checkRange(lo, hi int) error {
	if lo < 0 || hi > len(d.Samples) || lo >= hi {
		return fmt.Errorf("dataset: bad batch range [%d,%d) of %d", lo, hi, len(d.Samples))
	}
	return nil
}

// Batch materializes samples [lo, hi) as an image tensor
// [hi−lo, channels, size, size] plus labels.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int, error) {
	if err := d.checkRange(lo, hi); err != nil {
		return nil, nil, err
	}
	x := tensor.New(hi-lo, d.Channels, d.Size, d.Size)
	labels := make([]int, hi-lo)
	if err := d.BatchInto(x, labels, lo, hi); err != nil {
		return nil, nil, err
	}
	return x, labels, nil
}

// BatchInto is Batch writing into caller-owned buffers, so a training
// loop can refill one minibatch instead of allocating one per step. x
// must hold (hi−lo)·PixelDim() elements — shaped [hi−lo, channels, size,
// size] or, for MLP-style models, [hi−lo, pixels]; the bytes are the
// same — and labels hi−lo entries. Both are fully overwritten.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, lo, hi int) error {
	if err := d.checkRange(lo, hi); err != nil {
		return err
	}
	n, dim := hi-lo, d.PixelDim()
	if x.Rank() == 0 || x.Dim(0) != n || x.Size() != n*dim || len(labels) != n {
		return fmt.Errorf("dataset: batch buffers %v / %d labels, want %d samples of %d pixels", x.Shape(), len(labels), n, dim)
	}
	xd := x.Data()
	for i, s := range d.Samples[lo:hi] {
		copy(xd[i*dim:(i+1)*dim], s.X)
		labels[i] = s.Label
	}
	return nil
}
