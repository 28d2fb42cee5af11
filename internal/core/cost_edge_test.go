package core

import (
	"math/rand"
	"testing"
)

// Boundary settings where the measured wire bytes must still match the
// closed forms of Sec. VII: a single subgroup (m=1, the FedAvg layer is
// vestigial), full threshold (k=n, Eq. 5 collapses onto Eq. 4), an
// out-of-range threshold (clamped to n), and uneven subgroup sizes from
// SplitPeers.

func TestEq4MeasuredBytesSingleSubgroup(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	dim := 8
	for _, n := range []int{2, 4, 7} {
		sys, err := NewSystem(Config{Sizes: []int{n}}, rand.New(rand.NewSource(22)))
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, n, dim)
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(n*n+n-2) * int64(8*dim)
		if res.Bytes != want {
			t.Fatalf("m=1 n=%d: bytes = %d, want %d (Eq. 4)", n, res.Bytes, want)
		}
		if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
			t.Fatalf("m=1 n=%d: avg off by %v", n, d)
		}
	}
}

func TestEq5MeasuredBytesAtFullThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	dim := 8
	for _, mn := range [][2]int{{2, 3}, {3, 4}} {
		m, n := mn[0], mn[1]
		sizes := make([]int, m)
		for i := range sizes {
			sizes[i] = n
		}
		sys, err := NewSystem(Config{Sizes: sizes, K: []int{n}}, rand.New(rand.NewSource(24)))
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, m*n, dim)
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		// k=n makes Eq. 5 equal Eq. 4 — verify against the latter.
		want := int64(m*n*n+m*n-2) * int64(8*dim)
		if res.Bytes != want {
			t.Fatalf("m=%d n=%d k=n: bytes = %d, want %d", m, n, res.Bytes, want)
		}
	}
}

func TestOversizedThresholdClampsToN(t *testing.T) {
	// K beyond the subgroup size is clamped to n, so the round must both
	// succeed and cost exactly the n-out-of-n amount.
	r := rand.New(rand.NewSource(25))
	m, n, dim := 2, 3, 4
	sys, err := NewSystem(Config{Sizes: []int{n, n}, K: []int{99}}, rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, m*n, dim)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(m*n*n+m*n-2) * int64(8*dim)
	if res.Bytes != want {
		t.Fatalf("clamped k: bytes = %d, want %d", res.Bytes, want)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("clamped k: avg off by %v", d)
	}
}

func TestUnevenSplitMeasuredBytes(t *testing.T) {
	// SplitPeers(7,3) → {3,2,2}; the measured cost must match the uneven
	// closed form Σ(n²−1) + Σ(n−1) + 2(m−1).
	sizes, err := SplitPeers(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("SplitPeers(7,3) = %v, want %v", sizes, want)
		}
	}
	r := rand.New(rand.NewSource(27))
	dim := 8
	sys, err := NewSystem(Config{Sizes: sizes}, rand.New(rand.NewSource(28)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 7, dim)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var units int64
	for _, n := range sizes {
		units += int64(n*n-1) + int64(n-1)
	}
	units += 2 * int64(len(sizes)-1)
	if wantB := units * int64(8*dim); res.Bytes != wantB {
		t.Fatalf("uneven %v: bytes = %d, want %d", sizes, res.Bytes, wantB)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("uneven %v: avg off by %v", sizes, d)
	}
}

func TestSplitPeersMoreSubgroupsThanPeers(t *testing.T) {
	// N < m cannot be split; the error must surface rather than yielding
	// empty subgroups.
	if _, err := SplitPeers(2, 5); err == nil {
		t.Fatal("SplitPeers(2,5): want error")
	}
}
