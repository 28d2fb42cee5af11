package compress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wire"
)

func randVec(dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// TestQuantizeRoundTripBound pins the quantizer contract: every
// coordinate reconstructs within scale/2 (up to a 1-ulp slack for the
// scale division itself), and the Bound reports exactly that.
func TestQuantizeRoundTripBound(t *testing.T) {
	for _, width := range []int{1, 2} {
		for _, dim := range []int{1, 7, 1000} {
			w := randVec(dim, int64(31*width+dim))
			q, b, err := quantize(w, width, nil)
			if err != nil {
				t.Fatal(err)
			}
			if q.Width != width || len(q.Q) != dim {
				t.Fatalf("width %d dim %d: got %d/%d", width, dim, q.Width, len(q.Q))
			}
			dec := dequantize(q, nil)
			limit := q.Scale/2 + q.Scale*1e-12
			for i := range w {
				if e := math.Abs(w[i] - dec[i]); e > limit {
					t.Fatalf("width %d dim %d: coord %d err %g > scale/2 = %g", width, dim, i, e, q.Scale/2)
				}
			}
			if b.MaxCoordErr != q.Scale/2 {
				t.Fatalf("bound says %g, want scale/2 = %g", b.MaxCoordErr, q.Scale/2)
			}
			if b.MeasuredMaxErr > limit {
				t.Fatalf("measured max err %g > %g", b.MeasuredMaxErr, limit)
			}
			if b.Kept != dim || b.Dim != dim {
				t.Fatalf("bound kept/dim = %d/%d", b.Kept, b.Dim)
			}
			// The extreme coordinate must use the full step range.
			maxStep := int16(maxQ8)
			if width == 2 {
				maxStep = maxQ16
			}
			peak := int16(0)
			for _, s := range q.Q {
				if s > peak {
					peak = s
				}
				if -s > peak {
					peak = -s
				}
			}
			if peak != maxStep {
				t.Fatalf("width %d: peak step %d, want %d", width, peak, maxStep)
			}
		}
	}
}

// TestQuantizeDeterministicAcrossWorkers runs the same compression at
// worker budgets 1, 2, 4 and 8 (under -race this also audits the panel
// handoff) and demands bit-identical blocks and bounds.
func TestQuantizeDeterministicAcrossWorkers(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	w := randVec(4097, 7) // odd size: panels cannot split evenly
	type out struct {
		q wire.QuantDelta
		s wire.SparseDelta
		b Bound
	}
	var ref *out
	for _, workers := range []int{1, 2, 4, 8} {
		tensor.SetParallelism(workers)
		q, qb, err := quantize(w, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := sparsify(w, 411, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := &out{q: q, s: s, b: qb}
		dec := dequantize(q, nil)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got.q, ref.q) || got.b != ref.b {
			t.Fatalf("workers=%d: quantized block differs from workers=1", workers)
		}
		if !reflect.DeepEqual(got.s, ref.s) {
			t.Fatalf("workers=%d: sparse block differs from workers=1", workers)
		}
		refDec := dequantize(ref.q, nil)
		for i := range dec {
			if math.Float64bits(dec[i]) != math.Float64bits(refDec[i]) {
				t.Fatalf("workers=%d: dequantized coord %d differs", workers, i)
			}
		}
	}
}

// TestTopKTiesLowestIndex pins the tie-break: equal magnitudes keep the
// lowest index.
func TestTopKTiesLowestIndex(t *testing.T) {
	w := []float64{1, -1, 1, -1, 1, 0.5}
	s, b, err := sparsify(w, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 2}; !reflect.DeepEqual(s.Idx, want) {
		t.Fatalf("ties: kept %v, want %v", s.Idx, want)
	}
	if want := []float64{1, -1, 1}; !reflect.DeepEqual(s.Vals, want) {
		t.Fatalf("ties: vals %v, want %v", s.Vals, want)
	}
	// The largest dropped magnitude (the tied 1 at index 3) is the bound.
	if b.MaxCoordErr != 1 {
		t.Fatalf("bound %g, want 1", b.MaxCoordErr)
	}
}

func TestTopKSelectsLargest(t *testing.T) {
	w := randVec(500, 3)
	k := 50
	s, b, err := sparsify(w, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Idx) != k || b.Kept != k || b.Dim != 500 {
		t.Fatalf("kept %d (%+v)", len(s.Idx), b)
	}
	// Every kept magnitude ≥ every dropped magnitude.
	kept := make(map[int32]bool, k)
	minKept := math.Inf(1)
	for i, ix := range s.Idx {
		kept[ix] = true
		if i > 0 && s.Idx[i-1] >= ix {
			t.Fatal("indices not strictly ascending")
		}
		if a := math.Abs(s.Vals[i]); a < minKept {
			minKept = a
		}
		if w[ix] != s.Vals[i] {
			t.Fatalf("value mismatch at %d", ix)
		}
	}
	for i, v := range w {
		if !kept[int32(i)] && math.Abs(v) > minKept {
			t.Fatalf("dropped |w[%d]| = %g > min kept %g", i, math.Abs(v), minKept)
		}
	}
	// Reconstruction error per coordinate is bounded by the largest
	// dropped magnitude.
	dec := s.Dense(nil)
	for i := range w {
		if e := math.Abs(w[i] - dec[i]); e > b.MaxCoordErr {
			t.Fatalf("coord %d err %g > bound %g", i, e, b.MaxCoordErr)
		}
	}
}

func TestTopKQuantBound(t *testing.T) {
	w := randVec(300, 9)
	s, b, err := sparsify(w, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec := s.Dense(nil)
	limit := b.MaxCoordErr * (1 + 1e-12)
	for i := range w {
		if e := math.Abs(w[i] - dec[i]); e > limit {
			t.Fatalf("coord %d err %g > bound %g", i, e, b.MaxCoordErr)
		}
	}
	if b.MeasuredMaxErr > limit {
		t.Fatalf("measured %g > bound %g", b.MeasuredMaxErr, b.MaxCoordErr)
	}
}

// TestDroppedNaNLeavesTheBoundNaN: a NaN that is dropped (sparsify) or
// cannot be represented (quantize) errs by NaN, so both error bounds
// are NaN, not the largest finite error seen beside it.
func TestDroppedNaNLeavesTheBoundNaN(t *testing.T) {
	nan := math.NaN()
	for _, width := range []int{0, 1, 2} {
		_, b, err := sparsify([]float64{nan, nan, 1}, 1, width)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(b.MaxCoordErr) || !math.IsNaN(b.MeasuredMaxErr) {
			t.Errorf("sparsify width %d with a dropped NaN: bound %+v, want NaN", width, b)
		}
	}
	for _, width := range []int{1, 2} {
		_, b, err := quantize([]float64{0.5, nan, 1}, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(b.MeasuredMaxErr) {
			t.Errorf("quantize width %d with a NaN: measured error %g, want NaN", width, b.MeasuredMaxErr)
		}
	}
}

// TestInfiniteInputLeavesTheBoundNaN: an infinite coordinate makes the
// scale infinite, so every step decodes to NaN (∞·0); the measured
// error is NaN, not the 0 that a loop skipping NaN errors would keep.
func TestInfiniteInputLeavesTheBoundNaN(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		for _, width := range []int{1, 2} {
			q, b, err := quantize([]float64{inf, 1}, width, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := dequantize(q, nil)
			if !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
				t.Fatalf("quantize width %d of [%g 1] decodes to %v, want NaNs", width, inf, got)
			}
			if !math.IsNaN(b.MeasuredMaxErr) {
				t.Errorf("quantize width %d of [%g 1]: measured error %g, want NaN", width, inf, b.MeasuredMaxErr)
			}
		}
	}
}

// TestEmptyAndAllZero: degenerate vectors compress to canonical empty /
// zero blocks and reconstruct exactly.
func TestEmptyAndAllZero(t *testing.T) {
	for _, width := range []int{1, 2} {
		q, b, err := quantize(nil, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q.Scale != 0 || len(q.Q) != 0 || b != (Bound{}) {
			t.Fatalf("empty: %+v %+v", q, b)
		}
		zeros := make([]float64, 16)
		q, b, err = quantize(zeros, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q.Scale != 0 {
			t.Fatalf("all-zero: scale %g", q.Scale)
		}
		for _, s := range q.Q {
			if s != 0 {
				t.Fatal("all-zero: nonzero step")
			}
		}
		if b.MeasuredMaxErr != 0 || b.MaxCoordErr != 0 {
			t.Fatalf("all-zero: bound %+v", b)
		}
		dec := dequantize(q, nil)
		if !reflect.DeepEqual(dec, zeros) {
			t.Fatal("all-zero: reconstruction not zero")
		}
	}
	s, _, err := sparsify(nil, 5, 0)
	if err != nil || s.Dim != 0 || len(s.Idx) != 0 {
		t.Fatalf("empty topk: %+v %v", s, err)
	}
	s, _, err = sparsify(make([]float64, 8), 3, 0)
	if err != nil || len(s.Idx) != 3 {
		t.Fatalf("zero topk: %+v %v", s, err)
	}
	if dec := s.Dense(nil); !reflect.DeepEqual(dec, make([]float64, 8)) {
		t.Fatal("zero topk: reconstruction not zero")
	}
}

// TestConfigMessageBytes cross-checks the closed-form accounting against
// what Compress produced: MessageBytes, computed from the dimension
// alone, must equal the block size of the delta (which internal/wire's
// tests hold equal to the length of the encoded block).
func TestConfigMessageBytes(t *testing.T) {
	w := randVec(1000, 5)
	for _, cfg := range []Config{
		{Scheme: Quant8}, {Scheme: Quant16},
		{Scheme: TopK, Frac: 0.1}, {Scheme: TopKQuant8, Frac: 0.25}, {Scheme: TopKQuant16, Frac: 0.017},
	} {
		d, err := cfg.Compress(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.EncodedBytes(), cfg.MessageBytes(len(w)); got != want {
			t.Fatalf("%v: EncodedBytes %d != MessageBytes %d", cfg, got, want)
		}
		// Compression must actually compress at this dimension.
		if d.EncodedBytes() >= int64(8*len(w)) {
			t.Fatalf("%v: %dB not smaller than float64 %dB", cfg, d.EncodedBytes(), 8*len(w))
		}
	}
	if (Config{}).MessageBytes(100) != 800 {
		t.Fatal("scheme none must charge 8·dim")
	}
}

func TestConfigValidateAndParse(t *testing.T) {
	if err := (Config{Scheme: Scheme(99)}).Validate(); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if err := (Config{Scheme: TopK, Frac: 1.5}).Validate(); err == nil {
		t.Fatal("bad fraction accepted")
	}
	if _, err := (Config{}).Compress([]float64{1}); err == nil {
		t.Fatal("Compress with scheme none must error")
	}
	// Kept: fraction rounding, floor of 1, clamp to dim.
	c := Config{Scheme: TopK, Frac: 0.1}
	if c.Kept(1000) != 100 || c.Kept(4) != 1 || c.Kept(0) != 0 {
		t.Fatalf("Kept: %d %d %d", c.Kept(1000), c.Kept(4), c.Kept(0))
	}
	if (Config{Scheme: TopK}).Kept(1000) != 100 {
		t.Fatal("default fraction must be 0.1")
	}
}
