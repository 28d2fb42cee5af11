package secretshare

import (
	"math/rand"
	"testing"
)

// Error-path suite: malformed arguments must be rejected before any
// arithmetic, and scratch reuse across shapes must never let stale data
// leak into a fresh division.

func TestReconstructErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		shares [][]float64
	}{
		{"no shares", nil},
		{"empty slice", [][]float64{}},
		{"second share longer", [][]float64{{1, 2}, {1, 2, 3}}},
		{"second share shorter", [][]float64{{1, 2, 3}, {1, 2}}},
		{"later share mismatched", [][]float64{{1}, {2}, {3, 4}}},
	}
	for _, tc := range cases {
		if out, err := reconstruct(tc.shares); err == nil {
			t.Errorf("%s: accepted, got %v", tc.name, out)
		}
	}
	// Zero-dimension shares are degenerate but consistent: the sum of
	// nothing is nothing, not an error.
	out, err := reconstruct([][]float64{{}, {}})
	if err != nil || len(out) != 0 {
		t.Fatalf("zero-dim shares: out %v err %v", out, err)
	}
}

func TestReplicationParameterErrors(t *testing.T) {
	// k > n, k = 0, and negative values must be rejected by every entry
	// point that takes the pair.
	bad := []struct{ n, k int }{
		{5, 6},  // k > n
		{5, 0},  // k = 0
		{5, -1}, // negative k
		{0, 0},  // empty group
		{-3, 1}, // negative n
	}
	for _, p := range bad {
		if _, err := ReplicaIndices(0, p.n, p.k); err == nil {
			t.Errorf("ReplicaIndices accepted n=%d k=%d", p.n, p.k)
		}
		if _, err := HoldersOf(0, p.n, p.k); err == nil {
			t.Errorf("HoldersOf accepted n=%d k=%d", p.n, p.k)
		}
		if _, err := CoversAllShares([]int{0}, p.n, p.k); err == nil {
			t.Errorf("CoversAllShares accepted n=%d k=%d", p.n, p.k)
		}
	}
	// Out-of-range peer / share index with valid (n, k).
	if _, err := ReplicaIndices(5, 5, 3); err == nil {
		t.Error("ReplicaIndices accepted peer = n")
	}
	if _, err := ReplicaIndices(-1, 5, 3); err == nil {
		t.Error("ReplicaIndices accepted negative peer")
	}
	if _, err := HoldersOf(5, 5, 3); err == nil {
		t.Error("HoldersOf accepted share index = n")
	}
	if _, err := HoldersOf(-1, 5, 3); err == nil {
		t.Error("HoldersOf accepted negative share index")
	}
}

func TestDivideIntoArgumentErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{}} {
		if _, _, err := d.DivideInto(nil, 3, rng, nil, nil); err == nil {
			t.Errorf("%s: accepted empty secret", d.Name())
		}
		if _, _, err := d.DivideInto([]float64{1, 2}, 0, rng, nil, nil); err == nil {
			t.Errorf("%s: accepted n = 0", d.Name())
		}
		if _, _, err := d.DivideInto([]float64{1, 2}, -2, rng, nil, nil); err == nil {
			t.Errorf("%s: accepted negative n", d.Name())
		}
	}
}

// TestDirtyScratchReuseAcrossShapes drives the same scratch block and
// views through divisions of growing and shrinking (n, dim) shapes. The
// stale contents of a larger previous round must never reach the output:
// every share must carry exactly this round's fractions, summing to w.
func TestDirtyScratchReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ n, dim int }{
		{6, 8}, {3, 2}, {5, 5}, {2, 16}, {6, 8}, {1, 1}, {4, 3},
	}
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{Scale: 4}} {
		var block []float64
		var views [][]float64
		for _, sh := range shapes {
			w := make([]float64, sh.dim)
			for j := range w {
				w[j] = rng.NormFloat64() * 3
			}
			// Poison the scratch so any stale read is visible.
			for i := range block {
				block[i] = 1e30
			}
			shares, newBlock, err := d.DivideInto(w, sh.n, rng, block, views)
			if err != nil {
				t.Fatalf("%s %+v: %v", d.Name(), sh, err)
			}
			block, views = newBlock, shares
			if len(shares) != sh.n {
				t.Fatalf("%s %+v: %d shares", d.Name(), sh, len(shares))
			}
			got, err := reconstruct(shares)
			if err != nil {
				t.Fatalf("%s %+v: reconstruct: %v", d.Name(), sh, err)
			}
			for j := range w {
				if diff := got[j] - w[j]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s %+v: coordinate %d off by %g (stale scratch leaked?)", d.Name(), sh, j, diff)
				}
			}
			// Shares must also be exactly dim long — a view clipped from a
			// previous, wider round would smuggle extra coordinates.
			for i, s := range shares {
				if len(s) != sh.dim {
					t.Fatalf("%s %+v: share %d has %d coordinates", d.Name(), sh, i, len(s))
				}
			}
		}
	}
}

// TestViewAppendCannotCorruptNeighbour pins the capacity clipping in
// sliceBlock: growing one share view via append must copy out, not
// overwrite the adjacent share in the shared backing block.
func TestViewAppendCannotCorruptNeighbour(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shares, _, err := ScalarDivider{}.DivideInto([]float64{1, 2, 3}, 4, rng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), shares[1]...)
	_ = append(shares[0], 99) // would land on shares[1][0] without the cap clip
	for j, v := range shares[1] {
		if v != before[j] {
			t.Fatalf("append through share 0 corrupted share 1 at %d: %g → %g", j, before[j], v)
		}
	}
}
