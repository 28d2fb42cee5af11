package compress

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/wire"
)

// sparsifySorted is the sort-based top-k sparsify replaced: order every
// coordinate by (|w| descending, index ascending) — order is that
// magnitudeOrder(w) — keep the first k, sort the kept indices. It is the
// oracle the selection must match bit for bit.
func sparsifySorted(w []float64, order []int32, k, width int) (wire.SparseDelta, Bound) {
	dim := len(w)
	k = min(max(k, 0), dim)
	idx := append([]int32(nil), order[:k]...)
	slices.Sort(idx)
	s := wire.SparseDelta{Dim: dim, Idx: idx, Width: width}
	kept := make([]float64, k)
	for i := range kept {
		kept[i] = w[idx[i]]
	}
	b := Bound{Kept: k, Dim: dim}
	if k < dim {
		b.MaxCoordErr = math.Abs(w[order[k]])
	}
	for _, i := range order[k:] {
		b.MeasuredMaxErr = math.Max(b.MeasuredMaxErr, math.Abs(w[i]))
	}
	if width == 0 {
		s.Vals = kept
		return s, b
	}
	q, qb, _ := quantize(kept, width, nil)
	s.Scale, s.Q = q.Scale, q.Q
	b.MaxCoordErr += qb.MaxCoordErr
	b.MeasuredMaxErr = math.Max(b.MeasuredMaxErr, qb.MeasuredMaxErr)
	return s, b
}

// magnitudeOrder is the reference's strict order: every index of w by
// |w| descending, then index ascending. Magnitudes compare by their
// bits, which order like the values and put NaNs above +Inf.
func magnitudeOrder(w []float64) []int32 {
	order := make([]int32, len(w))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		va := math.Float64bits(w[a]) &^ signBit
		vb := math.Float64bits(w[b]) &^ signBit
		if va != vb {
			return cmp.Compare(vb, va)
		}
		return cmp.Compare(a, b)
	})
	return order
}

// selectionInputs are the shapes a selection can get wrong: heavy ties
// at the threshold, one repeated value, signed zeros, denormals and
// infinities, sorted runs, and plain noise.
func selectionInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	few := make([]float64, 5000)
	for i := range few {
		few[i] = float64(rng.Intn(7)-3) * 0.25 // 7 distinct values, ±ties
	}
	same := make([]float64, 3000)
	for i := range same {
		same[i] = -2.5
	}
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1, math.SmallestNonzeroFloat64, 0, 1}
	asc := make([]float64, 4096)
	for i := range asc {
		asc[i] = float64(i) * 1e-3
	}
	desc := make([]float64, 4096)
	for i := range desc {
		desc[i] = -float64(len(desc) - i)
	}
	// Magnitudes sharing every radix digit but the last.
	near := make([]float64, 2048)
	for i := range near {
		near[i] = math.Float64frombits(math.Float64bits(1.0) + uint64(rng.Intn(300)))
	}
	return map[string][]float64{
		"noise": randVec(10_007, 3), "few-values": few, "one-value": same,
		"edge": edge, "ascending": asc, "descending": desc, "last-digit": near,
		"nans": {math.NaN(), math.NaN(), 1, -3, math.NaN(), 0.5},
	}
}

// largeSelectionInputs are inputs long enough for threshold's sampled
// bracket (dim ≥ 4·sampleSize): the upload's shape and plain noise,
// where the bracket holds, and shapes that make it miss or overflow.
func largeSelectionInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(17))
	few := make([]float64, 65_536)
	for i := range few {
		few[i] = float64(rng.Intn(7)-3) * 0.25
	}
	same := make([]float64, 65_536)
	for i := range same {
		same[i] = -2.5
	}
	// Signed zeros on every seventh coordinate tie at the bottom; the
	// infinities and the NaN sit on and off the sample stride (17).
	specials := randVec(70_001, 19)
	for i := 0; i < len(specials); i += 7 {
		specials[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	specials[17*40], specials[17*41+3] = math.Inf(1), math.Inf(-1)
	specials[17*900], specials[5] = math.Inf(-1), math.NaN()
	asc := make([]float64, 65_536)
	for i := range asc {
		asc[i] = float64(i) * 1e-3
	}
	// Every sample position (stride 16) lands on a spike, so the sample
	// sees spikes only and the bracket misses at every k.
	spikes := make([]float64, 65_536)
	for i := range spikes {
		spikes[i] = 2*rng.Float64() - 1
		if i%16 == 0 {
			spikes[i] = 1000 + float64(i)
		}
	}
	return map[string][]float64{
		"mean-of-3": meanOfUniforms(100_003, 3, 23), "noise": randVec(65_537, 29),
		"seven-values": few, "one-value": same, "specials": specials,
		"ascending": asc, "spikes": spikes,
	}
}

// TestSparsifyMatchesSortedReference pins the selection to the sort it
// replaced: indices, values, quantized steps, scale and both error
// bounds are bit-identical for every k that matters, on the small
// inputs (kthMagnitude alone) and on the large ones (threshold's
// sampled bracket, or its fallback where the bracket misses).
func TestSparsifyMatchesSortedReference(t *testing.T) {
	check := func(name string, w []float64, ks []int) {
		order := magnitudeOrder(w)
		for _, k := range ks {
			for _, width := range []int{0, 1, 2} {
				got, gb, err := sparsify(w, k, width)
				if err != nil {
					t.Fatal(err)
				}
				want, wb := sparsifySorted(w, order, k, width)
				if !sameBlock(got, want) {
					t.Fatalf("%s k=%d width=%d: sparse block differs from the sorted reference\n got idx %v\nwant idx %v",
						name, k, width, head(got.Idx), head(want.Idx))
				}
				if gb.Kept != wb.Kept || gb.Dim != wb.Dim ||
					math.Float64bits(gb.MaxCoordErr) != math.Float64bits(wb.MaxCoordErr) ||
					math.Float64bits(gb.MeasuredMaxErr) != math.Float64bits(wb.MeasuredMaxErr) {
					t.Fatalf("%s k=%d width=%d: bound %+v, reference %+v", name, k, width, gb, wb)
				}
			}
		}
	}
	for name, w := range selectionInputs() {
		dim := len(w)
		check(name, w, []int{-1, 0, 1, 2, dim / 10, dim / 2, dim - 1, dim, dim + 3})
	}
	for name, w := range largeSelectionInputs() {
		dim := len(w)
		check(name, w, []int{1, 2, 100, dim / 10, dim / 3, dim / 2, dim - 1})
	}
}

// sameBlock is reflect.DeepEqual with floats compared by their bits, so
// a kept NaN equals itself.
func sameBlock(a, b wire.SparseDelta) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Dim == b.Dim && a.Width == b.Width && sameBits(a.Scale, b.Scale) &&
		(a.Idx == nil) == (b.Idx == nil) && slices.Equal(a.Idx, b.Idx) &&
		(a.Q == nil) == (b.Q == nil) && slices.Equal(a.Q, b.Q) &&
		(a.Vals == nil) == (b.Vals == nil) && slices.EqualFunc(a.Vals, b.Vals, sameBits)
}

// TestThresholdTakesThePathItShould pins which way threshold resolves:
// the sampled bracket on the upload's shape, the fallback where the
// sample sees only spikes or k = 1 leaves no room for candidates. Both
// ways must give the sorted order's (t, ties).
func TestThresholdTakesThePathItShould(t *testing.T) {
	inputs := largeSelectionInputs()
	mean, spikes := inputs["mean-of-3"], inputs["spikes"]
	for _, c := range []struct {
		name    string
		w       []float64
		k       int
		sampled bool
	}{
		{"mean-of-3", mean, len(mean) / 10, true},
		{"mean-of-3", mean, len(mean) / 2, true},
		{"mean-of-3", mean, 1, false},
		{"spikes", spikes, len(spikes) / 10, false},
		{"spikes", spikes, 100, false},
	} {
		if _, _, ok := bracketed(c.w, c.k, make([]float64, 0, c.k)); ok != c.sampled {
			t.Errorf("%s k=%d: bracket held = %v, want %v", c.name, c.k, ok, c.sampled)
		}
		order := magnitudeOrder(c.w)
		want := math.Float64bits(c.w[order[c.k-1]]) &^ signBit
		wantTies := 0
		for _, i := range order[:c.k] {
			if math.Float64bits(c.w[i])&^signBit == want {
				wantTies++
			}
		}
		if got, ties := threshold(c.w, c.k, make([]float64, 0, c.k)); got != want || ties != wantTies {
			t.Errorf("%s k=%d: t=%#x ties=%d, sort says t=%#x ties=%d", c.name, c.k, got, ties, want, wantTies)
		}
	}
}

// TestBracketSkipsThePassThatCannotFit pins when bracketed gives up
// before it reads w: where the bracket's ranks put more coordinates
// between them than the k slots of the buffer hold, the counting pass
// could only overflow. That is so at k = 2 and k = 100 on 65,537 and
// more coordinates, and not at a tenth of them — not at agg_compress's
// top 10 % of 1.25M weights either. Whichever way it goes, threshold
// gives the sorted order's (t, ties).
func TestBracketSkipsThePassThatCannotFit(t *testing.T) {
	mean := meanOfUniforms(65_537, 3, 23)
	for _, c := range []struct {
		dim, k int
		skip   bool
	}{
		{65_537, 2, true},
		{65_537, 100, true},
		{1 << 20, 2, true},
		{1 << 20, 100, true},
		{65_537, 6_553, false},
		{1_250_000, 125_000, false},
	} {
		hi, lo := bracketRanks(c.dim, c.k)
		if got := spansPastBuffer(c.dim, hi, lo, c.k); got != c.skip {
			t.Errorf("dim %d k=%d: bracket ranks [%d, %d] skip the pass = %v, want %v", c.dim, c.k, hi, lo, got, c.skip)
		}
		if c.dim != len(mean) {
			continue
		}
		order := magnitudeOrder(mean)
		want := math.Float64bits(mean[order[c.k-1]]) &^ signBit
		wantTies := 0
		for _, i := range order[:c.k] {
			if math.Float64bits(mean[i])&^signBit == want {
				wantTies++
			}
		}
		if _, _, ok := bracketed(mean, c.k, make([]float64, 0, c.k)); ok == c.skip {
			t.Errorf("dim %d k=%d: bracket held = %v with the pass skipped = %v", c.dim, c.k, ok, c.skip)
		}
		if got, ties := threshold(mean, c.k, make([]float64, 0, c.k)); got != want || ties != wantTies {
			t.Errorf("dim %d k=%d: t=%#x ties=%d, sort says t=%#x ties=%d", c.dim, c.k, got, ties, want, wantTies)
		}
	}
}

// meanOfUniforms is a subgroup average's shape: each coordinate the mean
// of m uniforms in [−1, 1).
func meanOfUniforms(dim, m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		for j := 0; j < m; j++ {
			w[i] += 2*rng.Float64() - 1
		}
		w[i] /= float64(m)
	}
	return w
}

// TestKthMagnitudeWithAnyBufferMatchesSort pins the selection's
// (t, ties) to the sorted order whatever buffer it is lent: capacity 0
// or 1 (the survivors never fit, or only in the last passes), one short
// of the first pass's bucket (they fit from a later pass), the bucket
// itself (they fit after the first pass) and k. The buffer starts full
// of NaNs, which order above every input here, so a pass that read it
// before writing it would count them.
func TestKthMagnitudeWithAnyBufferMatchesSort(t *testing.T) {
	inputs := selectionInputs()
	inputs["mean-of-3"] = meanOfUniforms(10_000, 3, 21)
	inputs["mean-of-15"] = meanOfUniforms(10_003, 15, 22)
	const firstShift = 63 - selectDigitBits
	for name, w := range inputs {
		order := magnitudeOrder(w)
		dim := len(w)
		for _, k := range []int{1, 2, dim / 10, dim / 2, dim} {
			if k < 1 {
				continue
			}
			want := math.Float64bits(w[order[k-1]]) &^ signBit
			wantTies, bucket := 0, 0
			for _, i := range order[:k] {
				if math.Float64bits(w[i])&^signBit == want {
					wantTies++
				}
			}
			for _, v := range w {
				if (math.Float64bits(v)&^signBit)>>firstShift == want>>firstShift {
					bucket++
				}
			}
			for _, c := range []int{0, 1, bucket - 1, bucket, k} {
				buf := make([]float64, c)
				for i := range buf {
					buf[i] = math.NaN()
				}
				got, ties := kthMagnitude(w, k, buf[:0])
				if got != want || ties != wantTies {
					t.Fatalf("%s k=%d cap(buf)=%d (bucket %d): t=%#x ties=%d, sort says t=%#x ties=%d",
						name, k, c, bucket, got, ties, want, wantTies)
				}
			}
		}
	}
}

func head(idx []int32) []int32 { return idx[:min(len(idx), 12)] }

// TestSparsifyAllocatesOnlyItsOutput holds the selection to its memory
// contract: no dim-sized scratch (the sort kept a 4·dim index
// permutation), just the 12·k bytes of index and value output, plus 2·k
// of steps when quantized.
func TestSparsifyAllocatesOnlyItsOutput(t *testing.T) {
	w := randVec(200_000, 5)
	const k = 20_000
	for _, width := range []int{0, 1} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, _, err := sparsify(w, k, width)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		// Large objects round up to whole 8 KiB pages; the rest is slack
		// for quantize's closures.
		budget := uint64(12*k+2*k*width) + 3*8192 + 4096
		if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
			t.Fatalf("width %d: %d bytes allocated, budget %d (4·dim would be %d)", width, got, budget, 4*len(w))
		}
		if cap(s.Idx) != k {
			t.Fatalf("width %d: index block over-allocated (cap %d)", width, cap(s.Idx))
		}
	}
}

// BenchmarkSparsify times top-k at k = dim/10 on normal noise, and on
// agg_compress's upload: the mean of three uniforms at its model's
// dimension, keeping Config{Scheme: TopK, Frac: 0.1}.Kept(dim).
func BenchmarkSparsify(b *testing.B) {
	run := func(name string, w []float64, k int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(w)))
			for i := 0; i < b.N; i++ {
				if _, _, err := sparsify(w, k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, dim := range []int{100_000, 1_000_000} {
		run(fmt.Sprintf("dim1e%d", int(math.Round(math.Log10(float64(dim))))), randVec(dim, 42), dim/10)
	}
	const dim = 625_429
	run("mean3-dim625429", meanOfUniforms(dim, 3, 42), Config{Scheme: TopK, Frac: 0.1}.Kept(dim))
}
