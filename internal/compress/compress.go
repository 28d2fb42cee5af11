// Package compress implements deterministic lossy compression for model
// delta vectors: fixed-point quantization (int8/int16 steps against a
// per-tensor scale) and top-k sparsification (only the k
// largest-magnitude coordinates travel), in the block layouts of
// internal/wire (delta.go).
//
// The paper's cost model charges every distribution message 8·|w| bytes
// because the transports ship full-fat float64 vectors; these kernels
// shrink that unit to width·|w| (+13 bytes of block header) or to
// (4+width)·k for a top-k message, which is what makes the Eq. 4/5/10
// distribution terms cheap on the path to large N (see
// costmodel.DistributionBytes and DESIGN.md §12).
//
// Determinism contract: every kernel is bit-identical at any worker
// count. Elementwise transforms (quantize, dequantize) fan out over the
// shared tensor worker pool; reductions whose result depends on
// summation order (error accounting) and the top-k selection with its
// gather run serially, so no output ever depends on how the pool split
// the work. Compressing the same vector twice — on any machine, at any
// tensor.SetParallelism setting — yields the same bytes.
package compress

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// Quantization widths, in bytes per element, and their step ranges.
// Width 1 clamps steps to ±127 (not −128) so the range is symmetric and
// the per-coordinate error bound scale/2 holds at both extremes.
const (
	maxQ8  = 127
	maxQ16 = 32767
)

// Bound is the reconstruction-error accounting of one compression:
// the guaranteed per-coordinate bound implied by the scheme parameters
// plus the errors actually measured against the input vector. All
// fields are deterministic (the measured reductions run serially in
// ascending index order).
type Bound struct {
	// MaxCoordErr is the guaranteed per-coordinate reconstruction
	// error: scale/2 for quantization; for top-k, the magnitude of the
	// largest dropped coordinate (plus scale/2 when the kept values are
	// quantized too).
	MaxCoordErr float64
	// MeasuredMaxErr is max_i |w_i − decode(w)_i| over the whole vector.
	MeasuredMaxErr float64
	// MeasuredL2Err is ‖w − decode(w)‖₂.
	MeasuredL2Err float64
	// Kept and Dim are the surviving-coordinate count and the original
	// dimension (Kept == Dim for dense quantization).
	Kept, Dim int
}

// maxAbs returns max_i |w_i| (0 for an empty vector). Exact max is
// order-independent, so the panel split cannot change the result; the
// panel maxima are combined in ascending panel order regardless.
func maxAbs(w []float64) float64 {
	m := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Quantize compresses w into a dense fixed-point block: width 1 (int8
// steps) or 2 (int16 steps), scale = maxAbs(w)/maxQ. Element i encodes
// to round(w_i/scale), so the reconstruction scale·q_i is within
// scale/2 of w_i in every coordinate. An all-zero (or empty) vector
// encodes with scale 0 and all-zero steps. q is reused as the step
// scratch when its capacity suffices.
func Quantize(w []float64, width int, q []int16) (wire.QuantDelta, Bound, error) {
	maxStep := 0.0
	switch width {
	case 1:
		maxStep = maxQ8
	case 2:
		maxStep = maxQ16
	default:
		return wire.QuantDelta{}, Bound{}, fmt.Errorf("compress: quant width %d, want 1 or 2", width)
	}
	if cap(q) < len(w) {
		q = make([]int16, len(w))
	}
	q = q[:len(w)]
	scale := maxAbs(w) / maxStep
	if scale == 0 {
		for i := range q {
			q[i] = 0
		}
		d := wire.QuantDelta{Width: width, Scale: 0, Q: q}
		return d, Bound{Kept: len(w), Dim: len(w)}, nil
	}
	inv := 1 / scale
	tensor.ParallelRows(len(w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := math.Round(w[i] * inv)
			if s > maxStep {
				s = maxStep
			} else if s < -maxStep {
				s = -maxStep
			}
			q[i] = int16(s)
		}
	})
	d := wire.QuantDelta{Width: width, Scale: scale, Q: q}
	b := Bound{MaxCoordErr: scale / 2, Kept: len(w), Dim: len(w)}
	for i, v := range w {
		e := math.Abs(v - scale*float64(q[i]))
		if e > b.MeasuredMaxErr {
			b.MeasuredMaxErr = e
		}
		b.MeasuredL2Err += e * e
	}
	b.MeasuredL2Err = math.Sqrt(b.MeasuredL2Err)
	return d, b, nil
}

// Dequantize reconstructs a quantized block into dst (reused when its
// capacity suffices), fanning the elementwise scale-multiply out over
// the worker pool: element i is q.Scale·q.Q[i], bit-identical at any
// worker count.
func Dequantize(q wire.QuantDelta, dst []float64) []float64 {
	if cap(dst) < len(q.Q) {
		dst = make([]float64, len(q.Q))
	}
	dst = dst[:len(q.Q)]
	tensor.ParallelRows(len(q.Q), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = q.Scale * float64(q.Q[i])
		}
	})
	return dst
}

// signBit masks a float64's sign: the remaining 63 bits of a non-NaN
// value order exactly like its magnitude.
const signBit = 1 << 63

// selectDigitBits is the radix of kthMagnitude: 2048 counters (8 KiB of
// stack) per pass, six passes over the 64 bits.
const selectDigitBits = 11

// kthMagnitude returns the bit pattern t of the k-th largest |w_i|
// (1 ≤ k ≤ len(w)) and how many of the coordinates whose magnitude is
// exactly t belong to the top k. It is a most-significant-digit radix
// selection on the magnitude bits: each pass histograms one digit of
// the coordinates that still match the digits already fixed, then walks
// the histogram from the top to the bucket holding the k-th. Cost is
// Θ(dim) for every input (no pivot to be unlucky with), with no scratch
// beyond the histogram. NaNs order above +Inf by their bits.
func kthMagnitude(w []float64, k int) (t uint64, ties int) {
	var prefix uint64
	remaining := uint32(k)
	for hi := 64; hi > 0; {
		lo := max(hi-selectDigitBits, 0)
		mask := uint64(1)<<(hi-lo) - 1
		var hist [1 << selectDigitBits]uint32
		for _, v := range w {
			// A shift by 64 yields 0, so the first pass admits everything.
			if b := math.Float64bits(v) &^ signBit; b>>hi == prefix {
				hist[b>>lo&mask]++
			}
		}
		d := mask
		for ; hist[d] < remaining; d-- {
			remaining -= hist[d]
		}
		prefix = prefix<<(hi-lo) | d
		hi = lo
	}
	return prefix, int(remaining)
}

// Sparsify reduces w to its k largest-magnitude coordinates, ties broken
// by lowest index (the strict order is descending magnitude, then
// ascending index, so the result is a deterministic function of w
// alone). width 0 keeps the surviving values in full float64 precision;
// width 1 or 2 additionally quantizes them with Quantize's scheme over
// the kept values. k is clamped to [0, len(w)].
//
// The work is a selection, not a sort: kthMagnitude finds the k-th
// largest magnitude t, then one ascending scan keeps every coordinate
// above t plus the first few equal to it — which yields the kept
// indices already in ascending order — and accounts the dropped ones.
// Θ(dim) time, and only the 12·k bytes of output are allocated.
// MeasuredL2Err sums the dropped coordinates in ascending index order
// (then, for quantized values, the kept ones in ascending index order).
func Sparsify(w []float64, k, width int) (wire.SparseDelta, Bound, error) {
	if width != 0 && width != 1 && width != 2 {
		return wire.SparseDelta{}, Bound{}, fmt.Errorf("compress: sparse width %d, want 0, 1 or 2", width)
	}
	dim := len(w)
	if k < 0 {
		k = 0
	}
	if k > dim {
		k = dim
	}
	// Nothing is kept when k = 0: no magnitude reaches the threshold.
	t, ties := uint64(math.MaxUint64), 0
	var idx []int32
	if k > 0 {
		t, ties = kthMagnitude(w, k)
		idx = make([]int32, 0, k)
	}
	kept := make([]float64, 0, k)
	b := Bound{Kept: k, Dim: dim}
	// Dropped coordinates reconstruct to zero, so each errs by its
	// magnitude; the largest of them bounds every zeroed coordinate.
	for i, v := range w {
		a := math.Float64bits(v) &^ signBit
		if a > t || (a == t && ties > 0) {
			if a == t {
				ties--
			}
			idx = append(idx, int32(i))
			kept = append(kept, v)
			continue
		}
		e := math.Abs(v)
		if e > b.MeasuredMaxErr {
			b.MeasuredMaxErr = e
		}
		b.MeasuredL2Err += e * e
	}
	b.MaxCoordErr = b.MeasuredMaxErr
	s := wire.SparseDelta{Dim: dim, Idx: idx, Width: width}
	if width == 0 {
		// Kept coordinates are exact.
		s.Vals = kept
		b.MeasuredL2Err = math.Sqrt(b.MeasuredL2Err)
		return s, b, nil
	}
	q, qb, err := Quantize(kept, width, nil)
	if err != nil {
		return wire.SparseDelta{}, Bound{}, err
	}
	s.Scale, s.Q = q.Scale, q.Q
	b.MaxCoordErr += qb.MaxCoordErr
	// Measured over the full vector: kept coordinates err by their
	// quantization error.
	for i := range kept {
		e := math.Abs(kept[i] - s.Scale*float64(s.Q[i]))
		if e > b.MeasuredMaxErr {
			b.MeasuredMaxErr = e
		}
		b.MeasuredL2Err += e * e
	}
	b.MeasuredL2Err = math.Sqrt(b.MeasuredL2Err)
	return s, b, nil
}
