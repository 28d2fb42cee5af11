package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/compress"
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
