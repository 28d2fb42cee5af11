package main

import "testing"

func TestCompact(t *testing.T) {
	if got := compact([]int{3, 3, 4}); got != "[3 3 4]" {
		t.Fatalf("compact = %q", got)
	}
	if got := compact([]int{1, 2, 3, 4, 5, 6, 7, 8, 9}); got != "[1 2 3 4 5 6 …×3]" {
		t.Fatalf("compact long = %q", got)
	}
	if got := compact(nil); got != "[" {
		// Degenerate but never reached: SplitPeers always returns ≥ 1.
		t.Logf("compact(nil) = %q", got)
	}
}

// TestSubgroups: N peers split into ⌈N/n⌉ subgroups, and a subgroup size
// below one is an error rather than a division by zero.
func TestSubgroups(t *testing.T) {
	for _, tc := range []struct{ N, n, want int }{{30, 3, 10}, {31, 3, 11}, {30, 1, 30}, {2, 5, 1}} {
		if got, err := subgroups(tc.N, tc.n); err != nil || got != tc.want {
			t.Errorf("subgroups(%d, %d) = %d, %v; want %d", tc.N, tc.n, got, err, tc.want)
		}
	}
	for _, n := range []int{0, -1} {
		if _, err := subgroups(30, n); err == nil {
			t.Errorf("subgroups(30, %d) accepted a subgroup size below one", n)
		}
	}
}
