package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/sac"
	"repro/internal/wire"
)

// runRound builds a fresh system with the given compression config and
// runs one default round over deterministically seeded models.
func runRound(t *testing.T, cc compress.Config, secureUpper bool) (*System, *RoundResult) {
	t.Helper()
	sizes := []int{4, 4, 4}
	sys, err := NewSystem(Config{Sizes: sizes, Compression: cc, SecureUpper: secureUpper}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(8)), 12, 96)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// TestCompressionOffIsByteIdentical pins the opt-in contract: the zero
// Config.Compression reproduces the uncompressed rounds bit for bit —
// same global model, same byte counts, no bound reported.
func TestCompressionOffIsByteIdentical(t *testing.T) {
	sysA, resA := runRound(t, compress.Config{}, false)
	sysB, resB := runRound(t, compress.Config{Scheme: compress.None}, false)
	if !reflect.DeepEqual(resA.Global, resB.Global) {
		t.Fatal("zero-value compression changed the global model")
	}
	if resA.Bytes != resB.Bytes || sysA.Counter().TotalBytes() != sysB.Counter().TotalBytes() {
		t.Fatalf("zero-value compression changed traffic: %d vs %d", resA.Bytes, resB.Bytes)
	}
	for _, kind := range []string{KindUpload, KindDownload, KindBroadcast} {
		if sysA.Counter().Bytes(kind) != sysB.Counter().Bytes(kind) {
			t.Fatalf("%s bytes differ", kind)
		}
	}
	if resA.GlobalBound != nil || resB.GlobalBound != nil {
		t.Fatal("GlobalBound set without compression")
	}
}

// TestCompressionRoundSemantics checks the lossy round: distribution
// kinds are charged the encoded unit, the global model is the decoded
// copy (within the reported bound of the exact result), and SAC traffic
// is untouched.
func TestCompressionRoundSemantics(t *testing.T) {
	const dim = 96
	cc := compress.Config{Scheme: compress.Quant16}
	sysRef, ref := runRound(t, compress.Config{}, false)
	sys, res := runRound(t, cc, false)

	if res.GlobalBound == nil {
		t.Fatal("GlobalBound not reported")
	}
	if res.GlobalBound.Dim != dim {
		t.Fatalf("bound dim %d, want %d", res.GlobalBound.Dim, dim)
	}
	// Same seeds → identical subgroup SACs; the global model differs from
	// the exact one only by compression error. Uploads were themselves
	// lossy (quantized before FedAvg), so allow upload + distribution
	// error: each within its own per-coordinate bound.
	if !reflect.DeepEqual(res.SubgroupAvgs, ref.SubgroupAvgs) {
		t.Fatal("compression changed the subgroup SAC results")
	}
	maxDiff := 0.0
	for j := range ref.Global {
		if d := math.Abs(res.Global[j] - ref.Global[j]); d > maxDiff {
			maxDiff = d
		}
	}
	// Two lossy hops (upload quantization then global quantization) at
	// int16 width keep the drift tiny but nonzero.
	if maxDiff == 0 {
		t.Fatal("compressed round is bit-identical — compression did not engage")
	}
	if maxDiff > 4*res.GlobalBound.MaxCoordErr+1e-9 {
		t.Fatalf("global drifted %g, want within ~%g", maxDiff, 4*res.GlobalBound.MaxCoordErr)
	}

	// Byte accounting: distribution kinds at the encoded unit, SAC kinds
	// identical to the reference round.
	unit := cc.MessageBytes(dim)
	for _, kind := range []string{KindUpload, KindDownload, KindBroadcast} {
		msgs := sys.Counter().Messages(kind)
		if msgs == 0 {
			t.Fatalf("%s: no traffic", kind)
		}
		if got := sys.Counter().Bytes(kind); got != msgs*unit {
			t.Fatalf("%s: %dB over %d msgs, want %d per message", kind, got, msgs, unit)
		}
	}
	if sys.Counter().Bytes("sac/share") != sysRef.Counter().Bytes("sac/share") {
		t.Fatal("compression leaked into SAC share traffic")
	}
	if res.Bytes >= ref.Bytes {
		t.Fatalf("compressed round not cheaper: %d vs %d", res.Bytes, ref.Bytes)
	}
}

// TestCompressionSecureUpper: with the secure upper layer, uploads are
// SAC shares and stay exact; only the download/broadcast legs compress.
func TestCompressionSecureUpper(t *testing.T) {
	const dim = 96
	cc := compress.Config{Scheme: compress.Quant8}
	sys, res := runRound(t, cc, true)
	if res.GlobalBound == nil {
		t.Fatal("GlobalBound not reported under SecureUpper")
	}
	unit := cc.MessageBytes(dim)
	for _, kind := range []string{KindDownload, KindBroadcast} {
		msgs := sys.Counter().Messages(kind)
		if msgs == 0 {
			t.Fatalf("%s: no traffic", kind)
		}
		if got := sys.Counter().Bytes(kind); got != msgs*unit {
			t.Fatalf("%s: %dB over %d msgs, want %d per message", kind, got, msgs, unit)
		}
	}
	if sys.Counter().Messages(KindUpload) != 0 {
		t.Fatal("SecureUpper still recorded plain uploads")
	}
	if sys.Counter().Bytes("sac/share") == 0 {
		t.Fatal("SecureUpper recorded no share traffic")
	}
}

// TestCompressionConfigValidated: a malformed compression config is
// rejected at system construction.
func TestCompressionConfigValidated(t *testing.T) {
	_, err := NewSystem(Config{Sizes: []int{3}, Compression: compress.Config{Scheme: compress.Scheme(9)}}, nil)
	if err == nil {
		t.Fatal("invalid compression scheme accepted")
	}
	_, err = NewSystem(Config{Sizes: []int{3}, Compression: compress.Config{Scheme: compress.TopK, Frac: 2}}, nil)
	if err == nil {
		t.Fatal("invalid top-k fraction accepted")
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRound reports whether two round results carry bit-identical
// models, bounds and byte counts.
func sameRound(a, b *RoundResult) bool {
	if !sameBits(a.Global, b.Global) || len(a.SubgroupAvgs) != len(b.SubgroupAvgs) ||
		a.Bytes != b.Bytes || !reflect.DeepEqual(a.GlobalBound, b.GlobalBound) {
		return false
	}
	for g := range a.SubgroupAvgs {
		if !sameBits(a.SubgroupAvgs[g], b.SubgroupAvgs[g]) {
			return false
		}
	}
	return true
}

// sharesArray reports whether a and b are views of one array.
func sharesArray(a, b []float64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// aggregateRound is sys's AggregateRound of models under spec, as
// roundAlloc calls it.
func aggregateRound(sys *System, models [][]float64, spec RoundSpec) func() (*RoundResult, error) {
	return func() (*RoundResult, error) { return sys.AggregateRound(models, spec) }
}

// roundAlloc returns the bytes one warm round allocates: the third call
// of round.
func roundAlloc(t *testing.T, round func() (*RoundResult, error)) uint64 {
	t.Helper()
	for i := 0; i < 2; i++ { // warm the SAC working sets and the system's vectors
		if _, err := round(); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := round()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestCompressedRoundKeepsItsDecodeVectors pins the FedAvg leader's
// decode vectors: a warm top-k round allocates nothing dim-sized per
// upload on top of the uncompressed round (its sparse blocks are the
// System's too, which TestWarmRoundAllocatesNoModelVector pins), a warm
// system's round is bit for bit a fresh system's under every kind of
// scheme and no result vector of it aliases a decode vector, and a
// system reconfigured to more subgroups rounds exactly like a fresh one.
func TestCompressedRoundKeepsItsDecodeVectors(t *testing.T) {
	const dim = 20_000
	sizes3, sizes5 := []int{3, 3, 3}, []int{3, 3, 3, 3, 3}
	cc := compress.Config{Scheme: compress.TopK, Frac: 0.1}
	newSys := func(cfg Config, seed int64) (*System, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		cfg.K = []int{2}
		sys, err := NewSystem(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		return sys, rng
	}
	models := func(n int, seed int64) [][]float64 { return randModels(rand.New(rand.NewSource(seed)), n, dim) }

	m15 := models(15, 1)
	plain, _ := newSys(Config{Sizes: sizes5}, 2)
	topk, _ := newSys(Config{Sizes: sizes5, Compression: cc}, 2)
	blocks := int64(len(sizes5) * wire.SparseBlockSize(0, cc.Kept(dim))) // four uploads, one global
	slack := int64(8 * dim / 4)                                          // a quarter of one decoded upload
	if extra := int64(roundAlloc(t, aggregateRound(topk, m15, RoundSpec{}))) - int64(roundAlloc(t, aggregateRound(plain, m15, RoundSpec{}))); extra > blocks+slack {
		t.Fatalf("a warm top-k round allocates %d bytes more than an uncompressed one; its sparse blocks are %d (one decoded upload is %d)",
			extra, blocks, 8*dim)
	}

	// A round's results are the system's until its next round, which
	// writes them again in place: a warm system's round is, bit for bit, a
	// fresh system's on the same rng stream, and none of its result
	// vectors is a decode vector.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Sizes: sizes5}},
		{"top-k", Config{Sizes: sizes5, Compression: cc}},
		{"quant8", Config{Sizes: sizes5, Compression: compress.Config{Scheme: compress.Quant8}}},
		{"top-k quant16", Config{Sizes: sizes5, Compression: compress.Config{Scheme: compress.TopKQuant16, Frac: 0.1}}},
		{"secure upper", Config{Sizes: sizes5, SecureUpper: true}},
		{"secure upper quant16", Config{Sizes: sizes5, SecureUpper: true, Compression: compress.Config{Scheme: compress.Quant16}}},
		{"guarded", Config{Sizes: sizes5, Guard: &sac.Guard{ShareBound: 1e3}}},
	} {
		warm, rng := newSys(tc.cfg, 3)
		if _, err := warm.AggregateRound(models(15, 3), RoundSpec{}); err != nil {
			t.Fatal(err)
		}
		rng.Seed(4)
		fresh, _ := newSys(tc.cfg, 4)
		got, err := warm.AggregateRound(models(15, 4), RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.AggregateRound(models(15, 4), RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRound(got, want) {
			t.Fatalf("%s: a warm system's round differs from the same round on a fresh system", tc.name)
		}
		for _, v := range append(slices.Clone(got.SubgroupAvgs), got.Global) {
			for g, d := range warm.decoded {
				if sharesArray(v, d) {
					t.Fatalf("%s: a result vector is subgroup %d's decode vector", tc.name, g)
				}
			}
		}
	}

	// Three subgroups grow to five: the two new ones get decode vectors,
	// the three old ones are overwritten in place.
	grown, rng := newSys(Config{Sizes: sizes3, Compression: cc}, 5)
	if _, err := grown.AggregateRound(models(9, 6), RoundSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := grown.Reconfigure(sizes5, []int{2}); err != nil {
		t.Fatal(err)
	}
	rng.Seed(7)
	fresh, _ := newSys(Config{Sizes: sizes5, Compression: cc}, 7)
	got, err := grown.AggregateRound(models(15, 8), RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AggregateRound(models(15, 8), RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRound(got, want) {
		t.Fatal("a compressed round after Reconfigure differs from the same round on a fresh system")
	}
}
