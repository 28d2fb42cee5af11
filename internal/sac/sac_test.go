package sac

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/secretshare"
	"repro/internal/transport"
)

func randModels(r *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		m := make([]float64, dim)
		for j := range m {
			m[j] = r.NormFloat64() * 5
		}
		out[i] = m
	}
	return out
}

func trueMean(models [][]float64, who []int) []float64 {
	dim := len(models[0])
	avg := make([]float64, dim)
	for _, i := range who {
		for j, v := range models[i] {
			avg[j] += v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(who))
	}
	return avg
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

func allPeers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestBroadcastMatchesPlainAverage(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 10} {
		models := randModels(r, n, 16)
		mesh := transport.NewMesh(n, nil)
		res, err := Run(mesh, Config{N: n, K: n, Mode: ModeBroadcast, Rng: r}, models, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(n))); d > 1e-9 {
			t.Fatalf("n=%d: SAC average off by %v", n, d)
		}
		if len(res.Contributors) != n {
			t.Fatalf("contributors = %v", res.Contributors)
		}
	}
}

func TestBroadcastCostMatchesPaperFormula(t *testing.T) {
	// Alg. 2 total cost per aggregation: 2N(N−1)|w| (Sec. III-B).
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 5, 10} {
		dim := 32
		models := randModels(r, n, dim)
		traffic := transport.NewCounter()
		mesh := transport.NewMesh(n, traffic)
		if _, err := Run(mesh, Config{N: n, K: n, Mode: ModeBroadcast, Rng: r}, models, nil); err != nil {
			t.Fatal(err)
		}
		w := int64(8 * dim)
		want := int64(2*n*(n-1)) * w
		if got := traffic.TotalBytes(); got != want {
			t.Fatalf("n=%d: bytes = %d, want %d", n, got, want)
		}
	}
}

func TestLeaderModeNOutOfNCost(t *testing.T) {
	// Subgroup accounting (Sec. VII-A): (n²−1)|w| per subgroup SAC.
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 5, 8} {
		dim := 16
		models := randModels(r, n, dim)
		traffic := transport.NewCounter()
		mesh := transport.NewMesh(n, traffic)
		res, err := Run(mesh, Config{N: n, K: n, Leader: 0, Mode: ModeLeader, Rng: r}, models, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(n))); d > 1e-9 {
			t.Fatalf("n=%d: average off by %v", n, d)
		}
		w := int64(8 * dim)
		want := int64(n*n-1) * w
		if got := traffic.TotalBytes(); got != want {
			t.Fatalf("n=%d: bytes = %d, want %d", n, got, want)
		}
	}
}

func TestLeaderModeKOutOfNCostNoFailure(t *testing.T) {
	// Sec. VII-B: {n(n−1)(n−k+1)+(k−1)}|w| per subgroup SAC.
	r := rand.New(rand.NewSource(4))
	for _, nk := range [][2]int{{3, 2}, {5, 3}, {5, 5}, {7, 4}} {
		n, k := nk[0], nk[1]
		dim := 8
		models := randModels(r, n, dim)
		traffic := transport.NewCounter()
		mesh := transport.NewMesh(n, traffic)
		res, err := Run(mesh, Config{N: n, K: k, Leader: 0, Mode: ModeLeader, Rng: r}, models, nil)
		if err != nil {
			t.Fatalf("%d-%d: %v", k, n, err)
		}
		if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(n))); d > 1e-9 {
			t.Fatalf("%d-%d: average off by %v", k, n, d)
		}
		w := int64(8 * dim)
		want := int64(n*(n-1)*(n-k+1)+(k-1)) * w
		if got := traffic.TotalBytes(); got != want {
			t.Fatalf("%d-%d: bytes = %d, want %d", k, n, got, want)
		}
	}
}

func TestFig3TwoOutOfThreeDropout(t *testing.T) {
	// The paper's Fig. 3: one peer drops out after sending shares in a
	// 2-out-of-3 SAC; the remaining peers still complete the aggregation
	// and the dropout's model is included.
	r := rand.New(rand.NewSource(5))
	models := randModels(r, 3, 16)
	mesh := transport.NewMesh(3, nil)
	// "Alice" (peer 2, whose subtotal the leader does not replicate)
	// drops out mid-protocol, forcing a recovery fetch.
	crash := CrashPlan{2: AfterShares}
	res, err := Run(mesh, Config{N: 3, K: 2, Leader: 0, Mode: ModeLeader, Rng: r}, models, crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contributors) != 3 {
		t.Fatalf("contributors = %v, want all 3 (Alice's shares were sent)", res.Contributors)
	}
	if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(3))); d > 1e-9 {
		t.Fatalf("average off by %v", d)
	}
	if len(res.Recovered) == 0 {
		t.Fatal("expected at least one recovered subtotal")
	}
}

func TestBeforeSharesDropoutExcludesModel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	models := randModels(r, 5, 8)
	mesh := transport.NewMesh(5, nil)
	crash := CrashPlan{3: BeforeShares}
	res, err := Run(mesh, Config{N: 5, K: 3, Leader: 0, Mode: ModeLeader, Rng: r}, models, crash)
	if err != nil {
		t.Fatal(err)
	}
	want := trueMean(models, []int{0, 1, 2, 4})
	if d := maxAbsDiff(res.Avg, want); d > 1e-9 {
		t.Fatalf("average off by %v; dropout's model must be excluded", d)
	}
}

func TestMaxTolerableFailures(t *testing.T) {
	// k-out-of-n survives exactly n−k AfterShares crashes.
	r := rand.New(rand.NewSource(7))
	n, k := 5, 3
	models := randModels(r, n, 8)
	mesh := transport.NewMesh(n, nil)
	crash := CrashPlan{1: AfterShares, 2: AfterShares} // n−k = 2 crashes
	res, err := Run(mesh, Config{N: n, K: k, Leader: 0, Mode: ModeLeader, Rng: r}, models, crash)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(n))); d > 1e-9 {
		t.Fatalf("average off by %v", d)
	}
}

func TestTooManyFailures(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n, k := 5, 3
	models := randModels(r, n, 8)
	mesh := transport.NewMesh(n, nil)
	// n−k+1 = 3 consecutive crashes kill every holder of some subtotal.
	crash := CrashPlan{1: AfterShares, 2: AfterShares, 3: AfterShares}
	_, err := Run(mesh, Config{N: n, K: k, Leader: 0, Mode: ModeLeader, Rng: r}, models, crash)
	if !errors.Is(err, ErrInsufficientPeers) {
		t.Fatalf("err = %v, want ErrInsufficientPeers", err)
	}
}

func TestLeaderCrashErrors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	models := randModels(r, 3, 4)
	mesh := transport.NewMesh(3, nil)
	_, err := Run(mesh, Config{N: 3, K: 2, Leader: 0, Mode: ModeLeader, Rng: r}, models, CrashPlan{0: AfterShares})
	if !errors.Is(err, ErrLeaderCrashed) {
		t.Fatalf("err = %v, want ErrLeaderCrashed", err)
	}
}

func TestBroadcastAbortsOnAnyCrash(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	models := randModels(r, 4, 4)
	for _, phase := range []Phase{BeforeShares, AfterShares} {
		mesh := transport.NewMesh(4, nil)
		_, err := Run(mesh, Config{N: 4, K: 4, Mode: ModeBroadcast, Rng: r}, models, CrashPlan{2: phase})
		if !errors.Is(err, errAborted) {
			t.Fatalf("phase %v: err = %v, want ErrAborted", phase, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	models := randModels(r, 3, 4)
	mesh := transport.NewMesh(3, nil)
	cases := []Config{
		{N: 0, K: 1},
		{N: 3, K: 0},
		{N: 3, K: 4},
		{N: 3, K: 2, Mode: ModeBroadcast}, // broadcast needs K=N
		{N: 3, K: 3, Mode: ModeLeader, Leader: 5},  // leader out of range
		{N: 3, K: 3, Mode: ModeLeader, Leader: -1}, // leader out of range
	}
	for i, cfg := range cases {
		if _, err := Run(mesh, cfg, models, nil); err == nil {
			t.Fatalf("case %d: want config error", i)
		}
	}
	// Mismatched mesh/models.
	if _, err := Run(transport.NewMesh(2, nil), Config{N: 3, K: 3}, models, nil); err == nil {
		t.Fatal("want mesh-size error")
	}
	if _, err := Run(mesh, Config{N: 3, K: 3, Mode: ModeLeader}, models[:2], nil); err == nil {
		t.Fatal("want model-count error")
	}
	if _, err := Run(mesh, Config{N: 3, K: 3, Mode: ModeLeader}, [][]float64{{1}, {1, 2}, {1}}, nil); err == nil {
		t.Fatal("want ragged-model error")
	}
}

func TestMaskDividerAlsoWorks(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	models := randModels(r, 5, 8)
	mesh := transport.NewMesh(5, nil)
	cfg := Config{N: 5, K: 3, Leader: 2, Mode: ModeLeader, Rng: r, Divider: secretshare.MaskDivider{Scale: 20}}
	res, err := Run(mesh, cfg, models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Avg, trueMean(models, allPeers(5))); d > 1e-9 {
		t.Fatalf("average off by %v", d)
	}
}

// Property: for random n, k, leader and crash subsets of size ≤ n−k
// (excluding the leader), k-out-of-n SAC recovers the exact average of
// all contributing models.
func TestFaultToleranceProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, crashRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 3 // 3..8
		k := int(kRaw)%(n-1) + 2
		if k > n {
			k = n
		}
		leader := r.Intn(n)
		models := randModels(r, n, 6)
		// Crash up to n−k non-leader peers after shares.
		maxCrash := n - k
		numCrash := 0
		if maxCrash > 0 {
			numCrash = int(crashRaw) % (maxCrash + 1)
		}
		crash := CrashPlan{}
		perm := r.Perm(n)
		for _, p := range perm {
			if len(crash) >= numCrash {
				break
			}
			if p != leader {
				crash[p] = AfterShares
			}
		}
		mesh := transport.NewMesh(n, nil)
		res, err := Run(mesh, Config{N: n, K: k, Leader: leader, Mode: ModeLeader, Rng: r}, models, crash)
		if err != nil {
			return false
		}
		return maxAbsDiff(res.Avg, trueMean(models, allPeers(n))) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSACBroadcast10Peers(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	models := randModels(r, 10, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mesh := transport.NewMesh(10, nil)
		if _, err := Run(mesh, Config{N: 10, K: 10, Mode: ModeBroadcast, Rng: r}, models, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSACLeaderKOutOfN(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	models := randModels(r, 5, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mesh := transport.NewMesh(5, nil)
		if _, err := Run(mesh, Config{N: 5, K: 3, Leader: 0, Mode: ModeLeader, Rng: r}, models, nil); err != nil {
			b.Fatal(err)
		}
	}
}
