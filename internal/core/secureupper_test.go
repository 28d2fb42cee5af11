package core

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
)

func TestSecureUpperEqualsGlobalMean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := Config{Sizes: []int{3, 3, 4}, SecureUpper: true}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 10, 16)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("secure-upper avg off by %v", d)
	}
}

func TestSecureUpperWeighted(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := Config{Sizes: []int{2, 2}, SecureUpper: true}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 4, 4)
	counts := []float64{10, 10, 30, 30}
	res, err := sys.AggregateRound(models, RoundSpec{SampleCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	sub0, sub1 := mean(models[:2]), mean(models[2:])
	want := make([]float64, 4)
	for j := range want {
		want[j] = 0.25*sub0[j] + 0.75*sub1[j]
	}
	if d := maxAbsDiff(res.Global, want); d > 1e-9 {
		t.Fatalf("weighted secure-upper avg off by %v", d)
	}
}

// The SecureUpper cost matches its closed form exactly.
func TestSecureUpperCostMatchesFormula(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dim := 8
	for _, mn := range [][2]int{{2, 3}, {3, 4}, {4, 2}} {
		m, n := mn[0], mn[1]
		sizes := make([]int, m)
		for i := range sizes {
			sizes[i] = n
		}
		sys, err := NewSystem(Config{Sizes: sizes, SecureUpper: true}, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, m*n, dim)
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		units, err := costmodel.TwoLayerSecureUpperUnits(m, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := units * int64(8*dim); res.Bytes != want {
			t.Fatalf("m=%d n=%d: bytes = %d, want %d", m, n, res.Bytes, want)
		}
	}
	if _, err := costmodel.TwoLayerSecureUpperUnits(0, 3); err == nil {
		t.Fatal("want error for m=0")
	}
}

// SecureUpper costs more than plain FedAvg on top but still far less
// than the one-layer baseline — the paper's suggested trade-off.
func TestSecureUpperCostOrdering(t *testing.T) {
	for _, mn := range [][2]int{{3, 3}, {5, 5}, {10, 3}} {
		m, n := mn[0], mn[1]
		plain, err := costmodel.TwoLayerUnits(m, n)
		if err != nil {
			t.Fatal(err)
		}
		secure, err := costmodel.TwoLayerSecureUpperUnits(m, n)
		if err != nil {
			t.Fatal(err)
		}
		base, err := costmodel.BaselineUnits(m * n)
		if err != nil {
			t.Fatal(err)
		}
		if secure <= plain {
			t.Fatalf("m=%d n=%d: secure upper %d not above plain %d", m, n, secure, plain)
		}
		if secure >= base {
			t.Fatalf("m=%d n=%d: secure upper %d not below baseline %d", m, n, secure, base)
		}
	}
}

func TestSecureUpperSingleParticipant(t *testing.T) {
	// With one subgroup there is no upper-layer exchange at all.
	r := rand.New(rand.NewSource(7))
	sys, err := NewSystem(Config{Sizes: []int{4}, SecureUpper: true}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 4, 4)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("avg off by %v", d)
	}
	// Traffic: subgroup SAC (n²−1) + broadcast (n−1) only.
	want := int64(4*4-1+3) * int64(8*4)
	if res.Bytes != want {
		t.Fatalf("bytes = %d, want %d", res.Bytes, want)
	}
}

func TestSecureUpperWithFraction(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cfg := Config{Sizes: []int{3, 3, 3, 3}, SecureUpper: true, Fraction: 0.5}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 12, 4)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Participated) != 2 {
		t.Fatalf("participated = %v", res.Participated)
	}
	var who []int
	for _, g := range res.Participated {
		for i := 0; i < 3; i++ {
			who = append(who, g*3+i)
		}
	}
	sel := make([][]float64, 0, len(who))
	for _, i := range who {
		sel = append(sel, models[i])
	}
	if d := maxAbsDiff(res.Global, mean(sel)); d > 1e-9 {
		t.Fatalf("fractional secure-upper avg off by %v", d)
	}
}
