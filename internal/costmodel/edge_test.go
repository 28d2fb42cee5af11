package costmodel

import (
	"testing"
)

// Boundary values of the closed forms. Each degenerate setting must
// reduce to the obviously-correct count, not merely avoid an error:
// a single peer moves nothing, a single subgroup is plain SAC plus a
// vestigial FedAvg layer, and k=n collapses Eq. 5 onto Eq. 4.

func TestBaselineUnitsSinglePeer(t *testing.T) {
	// One peer aggregates with itself: 2N(N−1) = 0 transfers.
	got, err := BaselineUnits(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("BaselineUnits(1) = %d, want 0", got)
	}
}

func TestTwoLayerSingleSubgroup(t *testing.T) {
	// m=1: Eq. 4 degenerates to one subgroup SAC (n²−1), a no-op FedAvg
	// exchange (2(m−1) = 0) and the final broadcast (n−1) — n²+n−2.
	for _, n := range []int{1, 2, 3, 7} {
		got, err := TwoLayerUnits(1, n)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(n*n + n - 2)
		if got != want {
			t.Fatalf("TwoLayerUnits(1,%d) = %d, want %d", n, got, want)
		}
		// The uneven form with a single size must agree exactly.
		uneven, err := TwoLayerUnevenUnits([]int{n})
		if err != nil {
			t.Fatal(err)
		}
		if uneven != want {
			t.Fatalf("TwoLayerUnevenUnits([%d]) = %d, want %d", n, uneven, want)
		}
	}
}

func TestTwoLayerSubgroupsOfOne(t *testing.T) {
	// n=1: every subgroup is its own leader with nothing to share, so the
	// whole round is the FedAvg layer, 2(m−1) transfers.
	for _, m := range []int{1, 2, 5} {
		got, err := TwoLayerUnits(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2 * (m - 1)); got != want {
			t.Fatalf("TwoLayerUnits(%d,1) = %d, want %d", m, got, want)
		}
	}
	// The fully degenerate network — one subgroup of one peer — costs
	// nothing at all.
	if got, _ := TwoLayerUnits(1, 1); got != 0 {
		t.Fatalf("TwoLayerUnits(1,1) = %d, want 0", got)
	}
}

func TestEq5CollapsesToEq4AtFullThreshold(t *testing.T) {
	// k=n disables the replication overhead: (n²−kn+k)N+km−2 must equal
	// mn²+mn−2 identically.
	for _, mn := range [][2]int{{1, 1}, {1, 4}, {2, 3}, {3, 5}, {6, 2}} {
		m, n := mn[0], mn[1]
		eq5, err := twoLayerKNUnits(m, n, n)
		if err != nil {
			t.Fatal(err)
		}
		eq4, err := TwoLayerUnits(m, n)
		if err != nil {
			t.Fatal(err)
		}
		if eq5 != eq4 {
			t.Fatalf("m=%d n=%d: Eq.5 at k=n gives %d, Eq.4 gives %d", m, n, eq5, eq4)
		}
	}
}

func TestEq5MinimumThreshold(t *testing.T) {
	// k=1 is the other extreme — maximal replication: (n²−n+1)N+m−2.
	for _, mn := range [][2]int{{2, 3}, {3, 4}} {
		m, n := mn[0], mn[1]
		got, err := twoLayerKNUnits(m, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := int64((n*n-n+1)*m*n + m - 2)
		if got != want {
			t.Fatalf("TwoLayerKNUnits(%d,%d,1) = %d, want %d", m, n, got, want)
		}
	}
}

func TestUnevenKNClampsOversizedThreshold(t *testing.T) {
	// A k above a subgroup's size clamps to that size (a threshold can't
	// exceed the number of shareholders): sizes {3,2} with k=3 behave as
	// k=3 in the first subgroup and k=2 in the second.
	got, err := TwoLayerUnevenKNUnits([]int{3, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// n=3,k=3: 3·2·1+2 = 8 plus broadcast 2; n=2,k=2: 2·1·1+1 = 3 plus
	// broadcast 1; FedAvg 2(m−1) = 2.
	if want := int64(8 + 2 + 3 + 1 + 2); got != want {
		t.Fatalf("TwoLayerUnevenKNUnits([3,2],3) = %d, want %d", got, want)
	}
	// Clamped everywhere, the k-variant equals the n-out-of-n form.
	a, err := TwoLayerUnevenKNUnits([]int{4, 3, 2}, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoLayerUnevenUnits([]int{4, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fully clamped uneven-kn = %d, want n-out-of-n cost %d", a, b)
	}
}

func TestClosedFormRejectsDegenerateInputs(t *testing.T) {
	if _, err := BaselineUnits(0); err == nil {
		t.Fatal("BaselineUnits(0): want error")
	}
	if _, err := TwoLayerUnits(0, 3); err == nil {
		t.Fatal("TwoLayerUnits(0,3): want error")
	}
	if _, err := TwoLayerUnits(3, 0); err == nil {
		t.Fatal("TwoLayerUnits(3,0): want error")
	}
	if _, err := twoLayerKNUnits(2, 3, 0); err == nil {
		t.Fatal("TwoLayerKNUnits k=0: want error")
	}
	if _, err := twoLayerKNUnits(2, 3, 4); err == nil {
		t.Fatal("TwoLayerKNUnits k>n: want error")
	}
	if _, err := TwoLayerSecureUpperUnits(0, 3); err == nil {
		t.Fatal("TwoLayerSecureUpperUnits(0,3): want error")
	}
}
