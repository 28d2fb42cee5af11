// Package secretshare implements the additive secret-sharing primitives
// underlying Secure Average Computation:
//
//   - ScalarDivider — the paper's Alg. 1: the weight vector is split into
//     N shares by N normalized random fractions, par_w_i = prn_i·w. Every
//     share is collinear with w, so any one of them gives w's direction.
//   - MaskDivider — additive masking in float64: the first N−1 shares are
//     uniform random vectors in [−Scale, Scale) and the last is w minus
//     their sum. A bounded float mask does not make a proper subset of
//     shares independent of w: with N = 2 and Scale 1, one share of
//     w = ±0.5 gives the sign of w in about three trials of four.
//   - Replicated k-out-of-n share assignment (Ito et al. [7], as used by
//     the paper's Alg. 4): peer j holds the n−k+1 consecutive shares
//     j, j+1, …, j+n−k (mod n), so any k surviving peers still cover all
//     n shares.
//
// Shares sum to w only up to floating-point rounding, which the tests
// bound: the sum of a split usually differs from w in its last bits, and
// adding the same shares in another order can give other bits. Shares in
// a ring, which would hide w and sum exactly in any order, are ROADMAP
// item 16.
package secretshare

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Divider splits a secret vector into n additive shares.
type Divider interface {
	// Divide returns n share vectors whose elementwise sum is w.
	Divide(w []float64, n int, rng *rand.Rand) ([][]float64, error)
	// DivideInto is Divide with caller-owned scratch: all n shares are
	// written into one flat block (regrown only when too small) and the
	// returned views are slices of it, one per share. It returns the
	// views, the backing block (hand both back on the next call to
	// reuse them), and an error. Given the same rng state it produces
	// bit-identical shares to Divide.
	DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error)
	// Name identifies the scheme for logs and benchmarks.
	Name() string
}

// sliceBlock carves an n×dim flat block into n full-capacity views.
// Both scratch arguments are reused when large enough. Views are
// capacity-clipped so an append through one share cannot corrupt its
// neighbour.
func sliceBlock(block []float64, views [][]float64, n, dim int) ([]float64, [][]float64) {
	if cap(block) < n*dim {
		block = make([]float64, n*dim)
	}
	block = block[:n*dim]
	if cap(views) < n {
		views = make([][]float64, n)
	}
	views = views[:n]
	for i := range views {
		views[i] = block[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return block, views
}

// ScalarDivider is the paper's Alg. 1: draw n random numbers rn_i from
// (0,1), normalize them to fractions prn_i = rn_i/Σrn, and emit shares
// prn_i·w. Shares are collinear with w; reconstruction is exact in
// expectation and to rounding in practice.
type ScalarDivider struct{}

// Name implements Divider.
func (ScalarDivider) Name() string { return "scalar (Alg. 1)" }

// Divide implements Divider. All n shares live in one backing array —
// one bulk allocation instead of n per-share ones.
func (d ScalarDivider) Divide(w []float64, n int, rng *rand.Rand) ([][]float64, error) {
	shares, _, err := d.DivideInto(w, n, rng, nil, nil)
	return shares, err
}

// DivideInto implements Divider.
func (d ScalarDivider) DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error) {
	if err := checkDivide(w, n); err != nil {
		return nil, nil, err
	}
	// The fractions rn_i/Σrn live on the stack for up to 16 shares.
	var buf [16]float64
	f := buf[:0]
	if n > len(buf) {
		f = make([]float64, 0, n)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		// (0,1]: avoid an all-zero draw making the normalizer zero.
		rn := 1 - rng.Float64()
		f = append(f, rn)
		sum += rn
	}
	for i := range f {
		f[i] /= sum
	}
	// One read of w: each tile of it is written into all n shares while it
	// is in L1, or, for a long w, streamed past the caches (tensor.ScaleInto).
	block, shares := sliceBlock(block, views, n, len(w))
	tensor.ScaleInto(shares, f, w)
	return shares, block, nil
}

// MaskDivider is standard additive secret sharing: shares 0..n−2 are
// uniform random vectors in [−Scale, Scale) and share n−1 is
// w − Σ(others). Scale should dominate the magnitude of the weights; the
// zero value uses Scale 1.
type MaskDivider struct {
	Scale float64
}

// Name implements Divider.
func (m MaskDivider) Name() string { return "mask (uniform additive)" }

// Divide implements Divider. All n shares live in one backing array —
// one bulk allocation instead of n per-share ones.
func (m MaskDivider) Divide(w []float64, n int, rng *rand.Rand) ([][]float64, error) {
	shares, _, err := m.DivideInto(w, n, rng, nil, nil)
	return shares, err
}

// DivideInto implements Divider.
func (m MaskDivider) DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error) {
	if err := checkDivide(w, n); err != nil {
		return nil, nil, err
	}
	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	block, shares := sliceBlock(block, views, n, len(w))
	last := shares[n-1]
	copy(last, w)
	for i := 0; i < n-1; i++ {
		s := shares[i]
		for j := range s {
			r := (rng.Float64()*2 - 1) * scale
			s[j] = r
			last[j] -= r
		}
	}
	return shares, block, nil
}

func checkDivide(w []float64, n int) error {
	if n < 1 {
		return fmt.Errorf("secretshare: cannot split into %d shares", n)
	}
	if len(w) == 0 {
		return fmt.Errorf("secretshare: empty secret")
	}
	return nil
}

// reconstruct sums share vectors back into the secret.
func reconstruct(shares [][]float64) ([]float64, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("secretshare: no shares")
	}
	dim := len(shares[0])
	out := make([]float64, dim)
	for i, s := range shares {
		if len(s) != dim {
			return nil, fmt.Errorf("secretshare: share %d has %d elements, want %d", i, len(s), dim)
		}
		for j, v := range s {
			out[j] += v
		}
	}
	return out, nil
}

// ReplicaIndices returns the share indices peer holds under k-out-of-n
// replication: the n−k+1 consecutive indices peer, peer+1, …, peer+n−k,
// all mod n. With k = n each peer holds exactly its own share, recovering
// plain n-out-of-n sharing (Alg. 2).
func ReplicaIndices(peer, n, k int) ([]int, error) {
	out, err := AppendReplicaIndices(nil, peer, n, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendReplicaIndices appends peer's replica set to dst and returns the
// extended slice — the allocation-free form callers with a reusable
// backing array (the SAC scratch replica cache) build on. dst is
// returned unchanged on error.
func AppendReplicaIndices(dst []int, peer, n, k int) ([]int, error) {
	if err := checkKN(n, k); err != nil {
		return dst, err
	}
	if peer < 0 || peer >= n {
		return dst, fmt.Errorf("secretshare: peer %d out of [0,%d)", peer, n)
	}
	for j := peer; j <= peer+n-k; j++ {
		dst = append(dst, j%n)
	}
	return dst, nil
}

// HoldersOf returns the peers that hold share index idx under k-out-of-n
// replication: idx−(n−k), …, idx (mod n). Exactly n−k+1 peers hold each
// share, so the share survives any n−k simultaneous crashes.
func HoldersOf(idx, n, k int) ([]int, error) {
	if err := checkKN(n, k); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= n {
		return nil, fmt.Errorf("secretshare: share %d out of [0,%d)", idx, n)
	}
	out := make([]int, 0, n-k+1)
	for j := idx - (n - k); j <= idx; j++ {
		out = append(out, ((j%n)+n)%n)
	}
	return out, nil
}

func checkKN(n, k int) error {
	if n < 1 {
		return fmt.Errorf("secretshare: n = %d", n)
	}
	if k < 1 || k > n {
		return fmt.Errorf("secretshare: threshold k = %d out of [1,%d]", k, n)
	}
	return nil
}

// CoversAllShares reports whether the given set of alive peers jointly
// holds every one of the n shares under k-out-of-n replication.
func CoversAllShares(alive []int, n, k int) (bool, error) {
	if err := checkKN(n, k); err != nil {
		return false, err
	}
	held := make([]bool, n)
	for _, p := range alive {
		idx, err := ReplicaIndices(p, n, k)
		if err != nil {
			return false, err
		}
		for _, i := range idx {
			held[i] = true
		}
	}
	for _, h := range held {
		if !h {
			return false, nil
		}
	}
	return true, nil
}
