package secretshare

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, dim int) []float64 {
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.NormFloat64() * 10
	}
	return w
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDividersReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{Scale: 50}} {
		for _, n := range []int{1, 2, 3, 5, 10} {
			w := randVec(rng, 32)
			shares, err := d.Divide(w, n, rng)
			if err != nil {
				t.Fatalf("%s n=%d: %v", d.Name(), n, err)
			}
			if len(shares) != n {
				t.Fatalf("%s: %d shares, want %d", d.Name(), len(shares), n)
			}
			got, err := reconstruct(shares)
			if err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(got, w); diff > 1e-9 {
				t.Fatalf("%s n=%d: reconstruction off by %v", d.Name(), n, diff)
			}
		}
	}
}

// Property: reconstruction is exact (within fp rounding) for arbitrary
// seeds and share counts.
func TestDivideReconstructProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, dimRaw uint8) bool {
		n := int(nRaw%10) + 1
		dim := int(dimRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		w := randVec(rng, dim)
		for _, d := range []Divider{ScalarDivider{}, MaskDivider{}} {
			shares, err := d.Divide(w, n, rng)
			if err != nil {
				return false
			}
			got, err := reconstruct(shares)
			if err != nil {
				return false
			}
			if maxAbsDiff(got, w) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDivideErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{}} {
		if _, err := d.Divide([]float64{1}, 0, rng); err == nil {
			t.Fatalf("%s: want error for n=0", d.Name())
		}
		if _, err := d.Divide(nil, 3, rng); err == nil {
			t.Fatalf("%s: want error for empty secret", d.Name())
		}
	}
	if _, err := reconstruct(nil); err == nil {
		t.Fatal("want error reconstructing nothing")
	}
	if _, err := reconstruct([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("want error for ragged shares")
	}
}

func TestMaskSharesLookRandom(t *testing.T) {
	// Any single mask share must not be collinear with the secret: its
	// correlation with w should be near zero, unlike ScalarDivider.
	rng := rand.New(rand.NewSource(3))
	w := randVec(rng, 4096)
	shares, err := MaskDivider{Scale: 10}.Divide(w, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	corr := func(a, b []float64) float64 {
		var sa, sb, sab, saa, sbb float64
		for i := range a {
			sa += a[i]
			sb += b[i]
			sab += a[i] * b[i]
			saa += a[i] * a[i]
			sbb += b[i] * b[i]
		}
		n := float64(len(a))
		cov := sab/n - sa/n*sb/n
		return cov / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n))
	}
	if c := math.Abs(corr(shares[0], w)); c > 0.1 {
		t.Fatalf("mask share correlates with secret: %v", c)
	}
	// The paper's scalar shares ARE collinear — document that contrast.
	sshares, err := ScalarDivider{}.Divide(w, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c := corr(sshares[0], w); c < 0.99 {
		t.Fatalf("scalar share should be collinear with secret, corr=%v", c)
	}
}

func TestReplicaIndices(t *testing.T) {
	// 2-out-of-3 (the paper's Fig. 3): each peer holds 2 consecutive shares.
	for peer, want := range [][]int{{0, 1}, {1, 2}, {2, 0}} {
		got, err := ReplicaIndices(peer, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("peer %d: %v, want %v", peer, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("peer %d: %v, want %v", peer, got, want)
			}
		}
	}
	// n-out-of-n: exactly own share.
	got, err := ReplicaIndices(2, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("n-out-of-n indices = %v", got)
	}
}

func TestHoldersOfInverseOfReplicaIndices(t *testing.T) {
	for _, nk := range [][2]int{{3, 2}, {5, 3}, {5, 5}, {7, 4}, {10, 1}} {
		n, k := nk[0], nk[1]
		for idx := 0; idx < n; idx++ {
			holders, err := HoldersOf(idx, n, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(holders) != n-k+1 {
				t.Fatalf("share %d of %d-%d held by %d peers, want %d", idx, k, n, len(holders), n-k+1)
			}
			for _, h := range holders {
				ri, err := ReplicaIndices(h, n, k)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, i := range ri {
					if i == idx {
						found = true
					}
				}
				if !found {
					t.Fatalf("peer %d listed as holder of share %d but does not hold it", h, idx)
				}
			}
		}
	}
}

// Property: any set of ≥ k alive peers covers all shares; the fault
// tolerance guarantee of k-out-of-n SAC.
func TestAnyKPeersCoverAllShares(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 2
		k := int(kRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		// Random subset of exactly k alive peers.
		perm := rng.Perm(n)
		alive := perm[:k]
		ok, err := CoversAllShares(alive, n, k)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFewerThanKMayNotCover(t *testing.T) {
	// k−1 consecutive peers never cover all shares for k < n... pick the
	// concrete 2-out-of-3 case: one peer holds 2 of 3 shares.
	ok, err := CoversAllShares([]int{0}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("single peer must not cover all 3 shares in 2-out-of-3")
	}
}

func TestKNValidation(t *testing.T) {
	if _, err := ReplicaIndices(0, 0, 1); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := ReplicaIndices(0, 3, 4); err == nil {
		t.Fatal("want error for k>n")
	}
	if _, err := ReplicaIndices(3, 3, 2); err == nil {
		t.Fatal("want error for peer out of range")
	}
	if _, err := HoldersOf(-1, 3, 2); err == nil {
		t.Fatal("want error for share out of range")
	}
	if _, err := HoldersOf(0, 3, 0); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := CoversAllShares(nil, 3, 9); err == nil {
		t.Fatal("want error for bad k")
	}
}

func BenchmarkDivideVariants(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	w := randVec(rng, 1<<16)
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{Scale: 10}} {
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Divide(w, 5, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDividersHaveNoModeBooleans guards the one-kernel rule: a divider
// is its scheme and the scheme's parameters. A faster kernel is chosen
// from something the code can observe (the vector length), never by a
// caller-set switch.
func TestDividersHaveNoModeBooleans(t *testing.T) {
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{}} {
		typ := reflect.TypeOf(d)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Bool {
				t.Errorf("%s.%s is a bool", typ, f.Name)
			}
		}
	}
}
