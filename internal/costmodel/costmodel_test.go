package costmodel

import (
	"fmt"
	"math"
	"testing"
)

// twoLayerKNUnits is Eq. 5 as the paper states it — (n²−kn+k)N + km − 2
// for m equal subgroups of size n with threshold k, N = m·n — and the
// reference TwoLayerUnevenKNUnits is held to on equal subgroups.
func twoLayerKNUnits(m, n, k int) (int64, error) {
	if m < 1 || n < 1 {
		return 0, fmt.Errorf("costmodel: m=%d n=%d", m, n)
	}
	if k < 1 || k > n {
		return 0, fmt.Errorf("costmodel: k=%d out of [1,%d]", k, n)
	}
	mm, nn, kk := int64(m), int64(n), int64(k)
	N := mm * nn
	return (nn*nn-kk*nn+kk)*N + kk*mm - 2, nil
}

// multiLayerUnitsDerived recomputes the X-layer cost from first
// principles (Eq. 7: per-aggregation cost (n²−1)|w| times the number of
// aggregations, plus (N−1)|w| distribution), the reference Eq. 10's
// closed form is held to.
func multiLayerUnitsDerived(n, layers int) (int64, error) {
	N, err := MultiLayerPeers(n, layers)
	if err != nil {
		return 0, err
	}
	// Number of aggregations: Σ_{x=1..X−1} n(n−1)^{x−1} + 1.
	var aggs, term int64 = 1, int64(n)
	for x := 1; x <= layers-1; x++ {
		aggs += term
		term *= int64(n - 1)
	}
	nn := int64(n)
	return (nn*nn-1)*aggs + (N - 1), nil
}

func TestBaselineUnits(t *testing.T) {
	got, err := BaselineUnits(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 180 { // 2·10·9
		t.Fatalf("baseline(10) = %d", got)
	}
	if _, err := BaselineUnits(0); err == nil {
		t.Fatal("want error")
	}
}

func TestTwoLayerUnitsKnown(t *testing.T) {
	// m=1 degenerates to one-layer leader-collect SAC: n²+n−2 = (n²−1)+(n−1).
	got, err := TwoLayerUnits(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 28 {
		t.Fatalf("two-layer(1,5) = %d", got)
	}
	// Consistency with Eq. 5 at k=n.
	for _, mn := range [][2]int{{2, 3}, {5, 5}, {10, 3}} {
		a, err := TwoLayerUnits(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		b, err := twoLayerKNUnits(mn[0], mn[1], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("Eq.4(%v) = %d but Eq.5 with k=n = %d", mn, a, b)
		}
	}
}

func TestTwoLayerKNValidation(t *testing.T) {
	if _, err := twoLayerKNUnits(0, 3, 2); err == nil {
		t.Fatal("want error for m=0")
	}
	if _, err := twoLayerKNUnits(2, 3, 0); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := twoLayerKNUnits(2, 3, 4); err == nil {
		t.Fatal("want error for k>n")
	}
}

func TestHeadlineRatios(t *testing.T) {
	// The baseline over Eq. 5 at N = m·n.
	reduction := func(m, n, k int) float64 {
		t.Helper()
		base, err := BaselineUnits(m * n)
		if err != nil {
			t.Fatal(err)
		}
		two, err := twoLayerKNUnits(m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		return float64(base) / float64(two)
	}
	// Paper Sec. VII-B: 10.36× for n,k,N = 3,2,30.
	if r := reduction(10, 3, 2); math.Abs(r-10.357) > 0.01 {
		t.Fatalf("reduction(3,2,30) = %.3f, want ≈ 10.36", r)
	}
	// 14.75× for n,k,N = 3,3,30.
	if r := reduction(10, 3, 3); math.Abs(r-14.745) > 0.01 {
		t.Fatalf("reduction(3,3,30) = %.3f, want ≈ 14.75", r)
	}
	// 4.29× for n,k,N = 5,3,30.
	if r := reduction(6, 5, 3); math.Abs(r-4.29) > 0.03 {
		t.Fatalf("reduction(5,3,30) = %.3f, want ≈ 4.29", r)
	}
	// "About 20×" for N=50 with n=k=3 (paper: 23.80× with its own
	// rounding of m): accept the 17–25 band.
	base, _ := BaselineUnits(50)
	two, err := TwoLayerUnevenKNUnits([]int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base) / float64(two)
	if ratio < 17 || ratio > 26 {
		t.Fatalf("reduction at N=50 = %.2f, want ≈ 20×", ratio)
	}
}

func TestTwoLayerUnevenMatchesEvenCase(t *testing.T) {
	a, err := TwoLayerUnevenUnits([]int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoLayerUnits(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("uneven(%d) != even(%d)", a, b)
	}
	// And the k-variant agrees with Eq. 5 on equal sizes.
	a, err = TwoLayerUnevenKNUnits([]int{5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err = twoLayerKNUnits(2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("uneven-kn(%d) != Eq.5(%d)", a, b)
	}
	if _, err := TwoLayerUnevenUnits(nil); err == nil {
		t.Fatal("want error for no subgroups")
	}
	if _, err := TwoLayerUnevenKNUnits([]int{3}, 0); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := TwoLayerUnevenUnits([]int{0}); err == nil {
		t.Fatal("want error for zero size")
	}
	if _, err := TwoLayerUnevenKNUnits([]int{0}, 1); err == nil {
		t.Fatal("want error for zero size")
	}
}

// Property: the Fig. 13 shape — for fixed N, the two-layer cost at
// 1 < m < N is below the m=1 (pure SAC leader-collect) cost, and cost
// decreases monotonically... not strictly (integer effects), but the
// m=1 → m=2 step must drop sharply.
func TestCostDropsWithMoreSubgroups(t *testing.T) {
	sizes := func(n, m int) []int {
		out := make([]int, m)
		base, rem := n/m, n%m
		for i := range out {
			out[i] = base
			if i < rem {
				out[i]++
			}
		}
		return out
	}
	for _, N := range []int{12, 30} {
		one, err := TwoLayerUnevenUnits(sizes(N, 1))
		if err != nil {
			t.Fatal(err)
		}
		six, err := TwoLayerUnevenUnits(sizes(N, 6))
		if err != nil {
			t.Fatal(err)
		}
		if six*2 >= one {
			t.Fatalf("N=%d: m=6 cost %d not well below m=1 cost %d", N, six, one)
		}
	}
}

func TestMultiLayerPeersKnown(t *testing.T) {
	// X=1: N=n. X=2: n + n(n−1).
	n, err := MultiLayerPeers(3, 1)
	if err != nil || n != 3 {
		t.Fatalf("peers(3,1) = %d, %v", n, err)
	}
	n, err = MultiLayerPeers(3, 2)
	if err != nil || n != 9 {
		t.Fatalf("peers(3,2) = %d, %v", n, err)
	}
	n, err = MultiLayerPeers(4, 3)
	if err != nil || n != 4+12+36 {
		t.Fatalf("peers(4,3) = %d, %v", n, err)
	}
	if _, err := MultiLayerPeers(1, 2); err == nil {
		t.Fatal("want error for n=1")
	}
}

// Eq. 10's closed form must equal the first-principles derivation
// (Eqs. 7–9) at every n and X up to 7 and 5.
func TestMultiLayerCostClosedForm(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for x := 1; x <= 5; x++ {
			closed, err := MultiLayerUnits(n, x)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := multiLayerUnitsDerived(n, x)
			if err != nil {
				t.Fatal(err)
			}
			if closed != derived {
				t.Errorf("n=%d X=%d: Eq. 10 gives %d units, Eqs. 7–9 give %d", n, x, closed, derived)
			}
		}
	}
}

func TestWeightBytesAndGigabits(t *testing.T) {
	// The paper's |w|: 1.25M params × 4 bytes ≈ 5 MB ≈ 0.04 Gb.
	w := WeightBytes(PaperCNNParams, BytesPerParam32)
	if w != 5003432 {
		t.Fatalf("|w| = %d bytes", w)
	}
	gb := Gigabits(w)
	if math.Abs(gb-0.0400) > 0.0005 {
		t.Fatalf("|w| = %.4f Gb", gb)
	}
	// Fig. 13's m=6 point: ≈ 7.12 Gb for N=30.
	units, err := TwoLayerUnevenUnits([]int{5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	total := Gigabits(units * w)
	if math.Abs(total-7.12) > 0.15 {
		t.Fatalf("Fig.13 m=6 cost = %.2f Gb, want ≈ 7.12", total)
	}
	// And the baseline (m=1 one-layer broadcast SAC): 2·30·29 units ≈ 69.6 Gb;
	// the paper says m=6 is "about one-tenth" of one-layer SAC.
	base, _ := BaselineUnits(30)
	if r := float64(base) / float64(units); r < 8 || r > 12 {
		t.Fatalf("m=6 reduction = %.2f, want ≈ 10", r)
	}
}

func TestMultiLayerApproachesLinear(t *testing.T) {
	// Sec. VII-C: communication complexity is O(nN); for fixed n the
	// per-peer cost (N−1)(n+2)/N approaches the constant n+2.
	for _, x := range []int{2, 3, 4, 5} {
		n := 3
		N, err := MultiLayerPeers(n, x)
		if err != nil {
			t.Fatal(err)
		}
		units, err := MultiLayerUnits(n, x)
		if err != nil {
			t.Fatal(err)
		}
		perPeer := float64(units) / float64(N)
		if perPeer > float64(n+2) {
			t.Fatalf("X=%d: per-peer cost %.2f exceeds n+2 = %d", x, perPeer, n+2)
		}
	}
}
