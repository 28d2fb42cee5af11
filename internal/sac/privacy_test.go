package sac

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/secretshare"
	"repro/internal/transport"
)

// corr computes the Pearson correlation between two equal-length vectors.
func corr(a, b []float64) float64 {
	var sa, sb, sab, saa, sbb float64
	n := float64(len(a))
	for i := range a {
		sa += a[i]
		sb += b[i]
		sab += a[i] * b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// An honest-but-curious leader should learn nothing about any individual
// model from its protocol view. With K > 1 the leader holds only
// N−K+1 < N shares of each model; under MaskDivider the partial sum the
// leader can form from its view must be uncorrelated with the true
// model. Uncorrelated is all this test checks. Float masks do not make a
// proper subset of shares independent of the secret (the package comment
// of secretshare gives a sign leak that correlation cannot see); ROADMAP
// item 16 is the fix.
func TestLeaderViewRevealsNothingWithMasking(t *testing.T) {
	const n, k, dim = 5, 3, 4096
	const leader = 0
	r := rand.New(rand.NewSource(1))
	models := randModels(r, n, dim)

	mesh := transport.NewMesh(n, nil)
	// Capture every share the leader receives, per contributing peer — by
	// copy: an observed payload is the sender's share block, valid only
	// until the sender's next turn.
	leaderShares := map[int][][]float64{}
	mesh.Observe(func(m transport.Message) {
		if m.To == leader && m.Kind == KindShare {
			leaderShares[m.From] = append(leaderShares[m.From], append([]float64(nil), m.Payload...))
		}
	})
	cfg := Config{
		N: n, K: k, Leader: leader, Mode: ModeLeader,
		Divider: secretshare.MaskDivider{Scale: 20}, Rng: r,
	}
	res, err := Run(mesh, cfg, models, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Protocol correctness first.
	want := trueMean(models, allPeers(n))
	if d := maxAbsDiff(res.Avg, want); d > 1e-8 {
		t.Fatalf("average off by %v", d)
	}
	// The leader sees exactly N−K+1 shares of each other peer's model.
	for p := 0; p < n; p++ {
		if p == leader {
			continue
		}
		if got := len(leaderShares[p]); got != n-k+1 {
			t.Fatalf("leader holds %d shares of peer %d, want %d", got, p, n-k+1)
		}
		// Partial reconstruction from the leader's view correlates with
		// nothing: |corr| stays at noise level (≈1/√dim) rather than 1.
		partial := make([]float64, dim)
		for _, sh := range leaderShares[p] {
			for j, v := range sh {
				partial[j] += v
			}
		}
		if c := math.Abs(corr(partial, models[p])); c > 0.1 {
			t.Fatalf("leader's partial view of peer %d correlates with its model: %v", p, c)
		}
	}
}

// The contrast the secretshare package documents, observed at the
// protocol level: with the paper's Alg. 1 (scalar fractions) every single
// share IS collinear with the model, so a curious leader learns the
// direction of every peer's weight vector.
func TestLeaderViewUnderScalarDividerIsCollinear(t *testing.T) {
	const n, k, dim = 5, 3, 4096
	const leader = 0
	r := rand.New(rand.NewSource(2))
	models := randModels(r, n, dim)

	mesh := transport.NewMesh(n, nil)
	var oneShare []float64
	var from int = -1
	mesh.Observe(func(m transport.Message) {
		if m.To == leader && m.Kind == KindShare && oneShare == nil {
			// Copy: the payload is the engine's share block, which the
			// next contributor's turn overwrites.
			oneShare = append([]float64(nil), m.Payload...)
			from = m.From
		}
	})
	cfg := Config{N: n, K: k, Leader: leader, Mode: ModeLeader, Rng: r}
	if _, err := Run(mesh, cfg, models, nil); err != nil {
		t.Fatal(err)
	}
	if oneShare == nil {
		t.Fatal("no share captured")
	}
	if c := corr(oneShare, models[from]); c < 0.99 {
		t.Fatalf("Alg. 1 share should be collinear with the model, corr = %v", c)
	}
}

// Subtotals, on the other hand, are sums over every contributor's share
// and may be exchanged safely: a subtotal's correlation with any single
// model is bounded by the 1/N mixing (it is not independent — it is an
// additive mixture — but reveals no more than the aggregate does).
func TestSubtotalsAreMixtures(t *testing.T) {
	const n, dim = 8, 8192
	r := rand.New(rand.NewSource(3))
	models := randModels(r, n, dim)
	mesh := transport.NewMesh(n, nil)
	var subtotal []float64
	var owner int = -1
	mesh.Observe(func(m transport.Message) {
		if m.Kind == KindSubtotal && subtotal == nil {
			subtotal = m.Payload
			owner = m.From
		}
	})
	cfg := Config{N: n, K: n, Mode: ModeBroadcast, Divider: secretshare.MaskDivider{Scale: 20}, Rng: r}
	if _, err := Run(mesh, cfg, models, nil); err != nil {
		t.Fatal(err)
	}
	if subtotal == nil {
		t.Fatal("no subtotal captured")
	}
	// A subtotal of masked shares is dominated by the masks of the other
	// n−1 peers: correlation with the owner's model stays far below 1.
	if c := math.Abs(corr(subtotal, models[owner])); c > 0.5 {
		t.Fatalf("subtotal correlates too strongly with one model: %v", c)
	}
}
