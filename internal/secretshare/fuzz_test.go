package secretshare

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDivideReconstruct: any finite secret splits and reconstructs
// within floating-point tolerance under both schemes, for any share
// count and threshold.
func FuzzDivideReconstruct(f *testing.F) {
	f.Add(int64(1), uint8(3), 1.0, 2.0)
	f.Add(int64(7), uint8(1), -1e6, 1e-9)
	f.Add(int64(42), uint8(10), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, a, b float64) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Skip()
		}
		if math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			t.Skip() // avoid magnitude-driven rounding blowups
		}
		n := int(nRaw%12) + 1
		w := []float64{a, b}
		rng := rand.New(rand.NewSource(seed))
		for _, d := range []Divider{ScalarDivider{}, MaskDivider{Scale: 1 + math.Abs(a)}} {
			shares, err := d.Divide(w, n, rng)
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			got, err := reconstruct(shares)
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-6 * (1 + math.Abs(a) + math.Abs(b))
			if math.Abs(got[0]-a) > tol || math.Abs(got[1]-b) > tol {
				t.Fatalf("%s n=%d: reconstructed %v from (%v,%v)", d.Name(), n, got, a, b)
			}
		}
	})
}

// FuzzReplicaGeometry: for any valid (n, k), the replica assignment and
// holder sets stay mutually consistent.
func FuzzReplicaGeometry(f *testing.F) {
	f.Add(uint8(3), uint8(2))
	f.Add(uint8(10), uint8(10))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8) {
		n := int(nRaw%16) + 1
		k := int(kRaw)%n + 1
		for peer := 0; peer < n; peer++ {
			idx, err := ReplicaIndices(peer, n, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(idx) != n-k+1 {
				t.Fatalf("peer %d of %d-%d holds %d shares", peer, k, n, len(idx))
			}
			for _, s := range idx {
				holders, err := HoldersOf(s, n, k)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, h := range holders {
					if h == peer {
						found = true
					}
				}
				if !found {
					t.Fatalf("holder sets inconsistent at peer %d share %d (%d-%d)", peer, s, k, n)
				}
			}
		}
	})
}
