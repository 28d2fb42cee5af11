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
// plus the largest error actually measured against the input vector.
// Every field is deterministic: a maximum does not depend on the order
// it is taken in.
type Bound struct {
	// MaxCoordErr is the guaranteed per-coordinate reconstruction
	// error: scale/2 for quantization; for top-k, the magnitude of the
	// largest dropped coordinate (plus scale/2 when the kept values are
	// quantized too).
	MaxCoordErr float64
	// MeasuredMaxErr is max_i |w_i − decode(w)_i| over the whole vector.
	MeasuredMaxErr float64
	// Kept and Dim are the surviving-coordinate count and the original
	// dimension (Kept == Dim for dense quantization).
	Kept, Dim int
}

// maxAbs returns max_i |w_i| (0 for an empty vector), in one serial
// pass.
func maxAbs(w []float64) float64 {
	m := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// quantize compresses w into a dense fixed-point block: width 1 (int8
// steps) or 2 (int16 steps), scale = maxAbs(w)/maxQ. Element i encodes
// to round(w_i/scale), so the reconstruction scale·q_i is within
// scale/2 of w_i in every coordinate. An all-zero (or empty) vector
// encodes with scale 0 and all-zero steps. q is reused as the step
// scratch when its capacity suffices.
func quantize(w []float64, width int, q []int16) (wire.QuantDelta, Bound, error) {
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
	// A NaN coordinate errs by NaN, and so does every coordinate of an
	// input with an infinity in it (the scale is infinite and each step
	// decodes to ∞·0); once seen the bound stays NaN: no e > NaN holds.
	for i, v := range w {
		e := math.Abs(v - scale*float64(q[i]))
		if e > b.MeasuredMaxErr || e != e {
			b.MeasuredMaxErr = e
		}
	}
	return d, b, nil
}

// dequantize reconstructs a quantized block into dst (reused when its
// capacity suffices), fanning the elementwise scale-multiply out over
// the worker pool: element i is q.Scale·q.Q[i], bit-identical at any
// worker count.
func dequantize(q wire.QuantDelta, dst []float64) []float64 {
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

// selectDigitBits is the radix of kthMagnitude: 8,192 counters (32 KiB
// of stack) per pass, five passes over the 63 magnitude bits (13, 13,
// 13, 13, then 11). The first digit is the 11 exponent bits and the top
// two mantissa bits, so one pass places the k-th magnitude within a
// quarter octave.
const selectDigitBits = 13

// kthMagnitude returns the bit pattern t of the k-th largest |w_i|
// (1 ≤ k ≤ len(w)) and how many of the coordinates whose magnitude is
// exactly t belong to the top k. It is a most-significant-digit radix
// selection on the magnitude bits: each pass histograms one digit of
// the coordinates that still match the digits already fixed, then walks
// the histogram from the top to the bucket holding the k-th. Once that
// bucket fits in cap(buf), a pass also copies the coordinates it admits
// into buf, and the next pass reads buf instead of w — in place, since
// the write index never passes the read index; buf may therefore be w
// itself at length 0. Cost is Θ(dim) for every input (no pivot to be
// unlucky with), with no scratch beyond the histogram and buf. NaNs
// order above +Inf by their bits. threshold uses it on a sample, on the
// coordinates its bracket admits, and on all of w when the bracket
// fails; alone it reads w at least twice.
func kthMagnitude(w []float64, k int, buf []float64) (t uint64, ties int) {
	var prefix uint64
	remaining := uint32(k)
	src, n := w, len(w) // n of src's coordinates match prefix
	for hi := 63; hi > 0; {
		lo := max(hi-selectDigitBits, 0)
		mask := uint64(1)<<(hi-lo) - 1
		var hist [1 << selectDigitBits]uint32
		keep, out := n <= cap(buf), buf[:0]
		for _, v := range src {
			// Bit 63 is masked, so the first pass admits everything.
			if b := math.Float64bits(v) &^ signBit; b>>hi == prefix {
				hist[b>>lo&mask]++
				if keep {
					out = append(out, v)
				}
			}
		}
		if keep {
			src = out
		}
		d := mask
		for ; hist[d] < remaining; d-- {
			remaining -= hist[d]
		}
		n = int(hist[d])
		prefix = prefix<<(hi-lo) | d
		hi = lo
	}
	return prefix, int(remaining)
}

// sampleSize is how many magnitudes bracketed reads to place its
// bracket: 32 KiB of stack, read at a fixed stride.
const sampleSize = 4096

// threshold returns kthMagnitude(w, k, buf)'s (t, ties) for
// 1 ≤ k ≤ len(w), reading w once where kthMagnitude reads it twice:
// bracketed narrows the k-th magnitude down from a sample, and
// kthMagnitude on all of w is the fallback when that fails. Which path
// runs, and every bit of the result, depend on w and k alone.
func threshold(w []float64, k int, buf []float64) (t uint64, ties int) {
	if t, ties, ok := bracketed(w, k, buf); ok {
		return t, ties
	}
	return kthMagnitude(w, k, buf)
}

// bracketed is sampled selection in the manner of Floyd and Rivest
// ("Expected time bounds for selection", CACM 1975). It reads
// sampleSize magnitudes at the stride dim/sampleSize and, with
// kthMagnitude on the sample, brackets the sample rank r = k·S/dim
// (S = sampleSize) between hi at rank r − m and lo at rank r + m, with
// m = ⌈4·√(r·(1 − k/dim))⌉ + 2, about four standard deviations of the
// rank the k-th magnitude would have in a random sample. One
// branch-free pass over w then counts the sure coordinates, those above
// hi, and copies every candidate, lo ≤ |w_i| ≤ hi by bits, into buf.
// When sure < k ≤ sure + candidates, the k-th largest of w is the
// (k − sure)-th largest candidate, every coordinate equal to it is a
// candidate and every sure one lies above it, so kthMagnitude on the
// candidates gives w's (t, ties). ok is false — and buf holds garbage —
// when the bracket missed, the candidates did not fit in cap(buf) − 1,
// dim < 4·S, or k = dim; when the bracket's ranks alone say that the
// candidates will not fit (spansPastBuffer), w is not read at all.
func bracketed(w []float64, k int, buf []float64) (t uint64, ties int, ok bool) {
	dim := len(w)
	if dim < 4*sampleSize || k >= dim || cap(buf) < 2 {
		return 0, 0, false
	}
	hiRank, loRank := bracketRanks(dim, k)
	if spansPastBuffer(dim, hiRank, loRank, cap(buf)) {
		return 0, 0, false
	}
	var sample [sampleSize]float64
	stride := dim / sampleSize
	for i := range sample {
		sample[i] = w[i*stride]
	}
	// A rank off the sample's end leaves that side of the bracket open.
	hi, lo := uint64(math.MaxUint64)&^signBit, uint64(0)
	if hiRank >= 1 {
		hi, _ = kthMagnitude(sample[:], hiRank, nil)
	}
	if loRank <= sampleSize {
		lo, _ = kthMagnitude(sample[:], loRank, nil)
	}

	// Every coordinate is written at out[n] and kept by advancing n only
	// when it is a candidate. Past the last slot the writes pile up in
	// it, and n = len(out) already counts as overflow, so out[:n] is
	// intact whenever it is used.
	out := buf[:cap(buf)]
	last := len(out) - 1
	sure, n := 0, 0
	for _, v := range w {
		b := math.Float64bits(v) &^ signBit
		// Both operands are below 2⁶³, so a difference's top bit is a
		// comparison: above is b > hi, below is b < lo.
		above := (hi - b) >> 63
		below := (b - lo) >> 63
		out[min(n, last)] = v
		sure += int(above)
		n += int(1 ^ (above | below))
	}
	if n >= len(out) || sure >= k || k > sure+n {
		return 0, 0, false
	}
	t, ties = kthMagnitude(out[:n], k-sure, out[:0])
	return t, ties, true
}

// bracketRanks returns the sample ranks r − m and r + m of bracketed's
// bracket, which depend on dim and k alone.
func bracketRanks(dim, k int) (hiRank, loRank int) {
	r := float64(k) * sampleSize / float64(dim)
	m := int(math.Ceil(4*math.Sqrt(r*(1-float64(k)/float64(dim))))) + 2
	return int(r) - m, int(math.Ceil(r)) + m
}

// spansPastBuffer reports whether the bracket between sample ranks
// hiRank and loRank (clamped to the sample) holds about as many of w's
// dim coordinates as a buffer of room slots or more — (lo − hi)·stride,
// the coordinates between the two sample points — so the counting pass
// would all but surely overflow. Skipping it changes which path finds
// the threshold, never the threshold. It fires at small k, where the bracket's
// ±4σ margin dwarfs k (k = 2 or 100 at 65,537 coordinates), and not at
// a tenth of a model (1.25M coordinates: (489 − 330)·305 ≈ 48k
// candidates against k = 125k).
func spansPastBuffer(dim, hiRank, loRank, room int) bool {
	return (min(loRank, sampleSize)-max(hiRank, 1))*(dim/sampleSize) >= room
}

// sparsify reduces w to its k largest-magnitude coordinates, ties broken
// by lowest index (the strict order is descending magnitude, then
// ascending index, so the result is a deterministic function of w
// alone). width 0 keeps the surviving values in full float64 precision;
// width 1 or 2 additionally quantizes them with quantize's scheme over
// the kept values. k is clamped to [0, len(w)].
//
// The work is a selection, not a sort: threshold finds the k-th largest
// magnitude t, using the still-empty value output as its buffer, then
// one ascending scan keeps every coordinate above t plus the first few
// equal to it — which yields the kept indices already in ascending
// order — and takes the largest dropped magnitude. That is two reads of
// w when threshold's bracket holds (three when it falls back), Θ(dim)
// time, and only the 12·k bytes of output are allocated.
func sparsify(w []float64, k, width int) (wire.SparseDelta, Bound, error) {
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
	kept := make([]float64, 0, k)
	if k > 0 {
		// kept is not filled yet, so the selection may use it as buf.
		t, ties = threshold(w, k, kept)
		idx = make([]int32, 0, k)
	}
	// Dropped coordinates reconstruct to zero, so each errs by its
	// magnitude; the largest of them bounds every zeroed coordinate. It
	// is taken on the magnitude bits, where a NaN orders above +Inf, so
	// a dropped NaN makes the bound NaN.
	dropped := uint64(0)
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
		dropped = max(dropped, a)
	}
	e := math.Float64frombits(dropped)
	b := Bound{MaxCoordErr: e, MeasuredMaxErr: e, Kept: k, Dim: dim}
	s := wire.SparseDelta{Dim: dim, Idx: idx, Width: width}
	if width == 0 {
		// Kept coordinates are exact.
		s.Vals = kept
		return s, b, nil
	}
	q, qb, err := quantize(kept, width, nil)
	if err != nil {
		return wire.SparseDelta{}, Bound{}, err
	}
	s.Scale, s.Q = q.Scale, q.Q
	b.MaxCoordErr += qb.MaxCoordErr
	// Measured over the full vector: kept coordinates err by their
	// quantization error, which quantize has already measured. A dropped
	// +Inf outranks a kept NaN's NaN, as in the sort it replaced.
	b.MeasuredMaxErr = math.Max(b.MeasuredMaxErr, qb.MeasuredMaxErr)
	return s, b, nil
}
