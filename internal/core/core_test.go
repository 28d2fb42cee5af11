package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sac"
	"repro/internal/telemetry"
)

func randModels(r *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		m := make([]float64, dim)
		for j := range m {
			m[j] = r.NormFloat64()
		}
		out[i] = m
	}
	return out
}

func mean(models [][]float64) []float64 {
	avg := make([]float64, len(models[0]))
	for _, m := range models {
		for j, v := range m {
			avg[j] += v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(models))
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

func TestSplitPeers(t *testing.T) {
	// The paper's example (Fig. 13): N=30, m=4 → 8, 8, 7, 7.
	sizes, err := SplitPeers(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 8, 7, 7}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	// N=10, m=3 → 4, 3, 3 (the paper's Fig. 6: subgroups of 3, 3, 4).
	sizes, err = SplitPeers(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 10 || len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	if _, err := SplitPeers(3, 5); err == nil {
		t.Fatal("want error for m > n")
	}
	if _, err := SplitPeers(0, 1); err == nil {
		t.Fatal("want error for n = 0")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Sizes: []int{3, 0}},
		{Sizes: []int{3, 3}, K: []int{1, 2, 3}},
		{Sizes: []int{3}, Fraction: 1.5},
		{Sizes: []int{3}, Fraction: -0.1},
		{Sizes: []int{3, 3, 3, 3}, Fraction: math.NaN()},
		{Sizes: []int{3}, Guard: &sac.Guard{}},
	}
	for i, cfg := range bad {
		if _, err := NewSystem(cfg, nil); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

// Two-layer aggregation with equal sample counts must equal the plain
// mean of all models — the paper's claim that two-layer SAC matches the
// baseline's aggregate exactly.
func TestTwoLayerEqualsGlobalMean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sizes := range [][]int{{3, 3, 4}, {5, 5}, {2, 2, 2, 2, 2}} {
		cfg := Config{Sizes: sizes}
		sys, err := NewSystem(cfg, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, cfg.NumPeers(), 16)
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
			t.Fatalf("sizes %v: two-layer avg off by %v", sizes, d)
		}
		if len(res.Participated) != len(sizes) {
			t.Fatalf("participated = %v", res.Participated)
		}
	}
}

// With k-out-of-n subgroups the equality still holds.
func TestTwoLayerKOutOfNEqualsMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := Config{Sizes: []int{5, 5, 5}, K: []int{3}}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 15, 8)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("avg off by %v", d)
	}
}

// Eq. 4: total two-layer cost with n-out-of-n sharing is (mn²+mn−2)|w|.
func TestEq4MatchesMeasuredBytes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dim := 32
	for _, mn := range [][2]int{{2, 3}, {3, 4}, {5, 2}, {2, 5}} {
		m, n := mn[0], mn[1]
		sizes := make([]int, m)
		for i := range sizes {
			sizes[i] = n
		}
		sys, err := NewSystem(Config{Sizes: sizes}, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		models := randModels(r, m*n, dim)
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		w := int64(8 * dim)
		want := int64(m*n*n+m*n-2) * w
		if res.Bytes != want {
			t.Fatalf("m=%d n=%d: bytes = %d, want %d (Eq. 4)", m, n, res.Bytes, want)
		}
	}
}

// Eq. 5: with k-out-of-n sharing the total is {(n²−kn+k)N + km − 2}|w|.
func TestEq5MatchesMeasuredBytes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dim := 16
	for _, mnk := range [][3]int{{2, 3, 2}, {3, 5, 3}, {4, 5, 5}} {
		m, n, k := mnk[0], mnk[1], mnk[2]
		sizes := make([]int, m)
		for i := range sizes {
			sizes[i] = n
		}
		sys, err := NewSystem(Config{Sizes: sizes, K: []int{k}}, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		N := m * n
		models := randModels(r, N, dim)
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		w := int64(8 * dim)
		want := int64((n*n-k*n+k)*N+k*m-2) * w
		if res.Bytes != want {
			t.Fatalf("m=%d n=%d k=%d: bytes = %d, want %d (Eq. 5)", m, n, k, res.Bytes, want)
		}
	}
}

func TestBaselineCostIsQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dim := 16
	sys, err := NewSystem(Config{Sizes: []int{10}}, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 10, dim)
	res, err := sys.BaselineAggregate(models)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2*10*9) * int64(8*dim)
	if res.Bytes != want {
		t.Fatalf("baseline bytes = %d, want %d", res.Bytes, want)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("baseline avg off by %v", d)
	}
}

func TestFractionLimitsParticipation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cfg := Config{Sizes: []int{5, 5, 5, 5}, Fraction: 0.5}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 20, 8)
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Participated) != 2 {
		t.Fatalf("participated = %v, want 2 of 4 subgroups", res.Participated)
	}
	// The global model equals the mean over the participating subgroups'
	// peers only.
	var who []int
	for _, g := range res.Participated {
		for i := 0; i < 5; i++ {
			who = append(who, g*5+i)
		}
	}
	sel := make([][]float64, 0, len(who))
	for _, i := range who {
		sel = append(sel, models[i])
	}
	if d := maxAbsDiff(res.Global, mean(sel)); d > 1e-9 {
		t.Fatalf("fractional avg off by %v", d)
	}
}

func TestWeightedBySampleCounts(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	cfg := Config{Sizes: []int{2, 2}}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 4, 4)
	counts := []float64{10, 10, 30, 30} // subgroup 1 has 3× the data
	res, err := sys.AggregateRound(models, RoundSpec{SampleCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	sub0 := mean(models[:2])
	sub1 := mean(models[2:])
	want := make([]float64, 4)
	for j := range want {
		want[j] = 0.25*sub0[j] + 0.75*sub1[j]
	}
	if d := maxAbsDiff(res.Global, want); d > 1e-9 {
		t.Fatalf("weighted avg off by %v", d)
	}
}

func TestDropoutDuringAggregation(t *testing.T) {
	// One peer in subgroup 0 drops after sharing (k-out-of-n handles
	// it); its model still contributes.
	r := rand.New(rand.NewSource(15))
	cfg := Config{Sizes: []int{3, 3}, K: []int{2}}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 6, 8)
	crash := map[int]sac.CrashPlan{0: {2: sac.AfterShares}}
	res, err := sys.AggregateRound(models, RoundSpec{Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("avg off by %v (dropout model must still count)", d)
	}
}

func TestFailedSubgroupExcluded(t *testing.T) {
	// Subgroup 0 runs n-out-of-n and a peer crashes → its SAC aborts;
	// the round proceeds with subgroup 1 only.
	r := rand.New(rand.NewSource(17))
	cfg := Config{Sizes: []int{3, 3}}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 6, 8)
	crash := map[int]sac.CrashPlan{0: {1: sac.BeforeShares}}
	res, err := sys.AggregateRound(models, RoundSpec{Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Participated) != 1 || res.Participated[0] != 1 {
		t.Fatalf("participated = %v, want [1]", res.Participated)
	}
	if d := maxAbsDiff(res.Global, mean(models[3:])); d > 1e-9 {
		t.Fatalf("avg off by %v", d)
	}
	// A subgroup that cannot aggregate still gets the model: its leader
	// takes the download and relays it to its live follower. The crashed
	// peer holds nothing.
	for i, nd := range sys.loop.nodes {
		want := res.Global
		if i == 1 {
			want = nil
		}
		if !slices.Equal(nd.global, want) {
			t.Fatalf("peer %d holds %v after the round, want %v", i, nd.global, want)
		}
	}
}

func TestAllSubgroupsFailed(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	cfg := Config{Sizes: []int{2}}
	sys, err := NewSystem(cfg, rand.New(rand.NewSource(20)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 2, 4)
	crash := map[int]sac.CrashPlan{0: {1: sac.BeforeShares}}
	_, err = sys.AggregateRound(models, RoundSpec{Crash: crash})
	if !errors.Is(err, errNoSubgroups) {
		t.Fatalf("err = %v, want ErrNoSubgroups", err)
	}
}

func TestAggregateInputValidation(t *testing.T) {
	sys, err := NewSystem(Config{Sizes: []int{2, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	models := randModels(r, 3, 4) // wrong count
	if _, err := sys.AggregateRound(models, RoundSpec{}); err == nil {
		t.Fatal("want model-count error")
	}
	models = randModels(r, 4, 4)
	if _, err := sys.AggregateRound(models, RoundSpec{SampleCounts: []float64{1, 2}}); err == nil {
		t.Fatal("want count-length error")
	}
	if _, err := sys.BaselineAggregate(nil); err == nil {
		t.Fatal("want empty-models error")
	}
}

// TestBaselineAggregateChecksItsInput: the baseline steps the system's
// nodes, so it takes exactly one model per peer, all of one length, and
// rejects anything else before it counts a byte.
func TestBaselineAggregateChecksItsInput(t *testing.T) {
	sys, err := NewSystem(Config{Sizes: []int{2, 2}}, rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(27))
	ragged := randModels(r, 4, 4)
	ragged[2] = ragged[2][:3]
	for name, models := range map[string][][]float64{
		"too few":  randModels(r, 3, 4),
		"too many": randModels(r, 5, 4),
		"ragged":   ragged,
	} {
		if res, err := sys.BaselineAggregate(models); err == nil {
			t.Errorf("%s: accepted, global model %v", name, res.Global)
		}
	}
	if b := sys.Counter().TotalBytes(); b != 0 {
		t.Fatalf("%d bytes counted before the errors", b)
	}
	if _, err := sys.BaselineAggregate(randModels(r, 4, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestTransportCountersAddUpPerPeer: every message of a round, SAC and
// FedAvg alike, is charged once on transport/* under its sender's global
// id, so the per-peer bytes of every peer add up to the total, which is
// the round's.
func TestTransportCountersAddUpPerPeer(t *testing.T) {
	reg := telemetry.New()
	sys, err := NewSystem(Config{Sizes: []int{3, 3}, K: []int{2}, Telemetry: reg}, rand.New(rand.NewSource(28)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AggregateRound(randModels(rand.New(rand.NewSource(29)), 6, 2), RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	var sum int64
	for i := 0; i < 6; i++ {
		msgs, okM := counters[fmt.Sprintf("transport/peer%d/msgs_sent", i)]
		bytes, okB := counters[fmt.Sprintf("transport/peer%d/bytes_sent", i)]
		if !okM || !okB || msgs == 0 {
			t.Errorf("peer %d: msgs_sent %d (registered %v), bytes_sent %d (registered %v)", i, msgs, okM, bytes, okB)
		}
		sum += bytes
	}
	if total := counters["transport/bytes_sent"]; sum != total || total != res.Bytes {
		t.Fatalf("per-peer bytes sum to %d, transport/bytes_sent is %d, the round moved %d", sum, total, res.Bytes)
	}
}

// TestAggregateRoundRejectsARaggedModel: a model of the wrong length is
// the caller's error, named by peer before any SAC runs. It used to fail
// its subgroup's SAC, which the round counts as a failed subgroup and
// skips, so the round succeeded without that subgroup.
func TestAggregateRoundRejectsARaggedModel(t *testing.T) {
	sys, err := NewSystem(Config{Sizes: []int{3, 3}, K: []int{2}}, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(rand.New(rand.NewSource(23)), 6, 4)
	models[4] = models[4][:2]
	res, err := sys.AggregateRound(models, RoundSpec{})
	if err == nil {
		t.Fatalf("a ragged model was accepted: subgroups %v took part", res.Participated)
	}
	if !strings.Contains(err.Error(), "model 4 has 2 weights") {
		t.Fatalf("error %q does not name peer 4", err)
	}
	if b := sys.Counter().TotalBytes(); b != 0 {
		t.Fatalf("%d bytes sent before the error", b)
	}
}

// TestNonFiniteSampleCountIsAnError: a NaN or infinite n_k reaches FedAvg
// through RoundSpec.SampleCounts and fails the round. NaN and +Inf used
// to turn the global model into all NaN with no error.
func TestNonFiniteSampleCountIsAnError(t *testing.T) {
	models := randModels(rand.New(rand.NewSource(24)), 4, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sys, err := NewSystem(Config{Sizes: []int{2, 2}}, rand.New(rand.NewSource(25)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.AggregateRound(models, RoundSpec{SampleCounts: []float64{10, 10, bad, 30}})
		if err == nil {
			t.Fatalf("sample count %v: no error, global model %v", bad, res.Global)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ma := MovingAverage(xs, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if math.Abs(ma[i]-want[i]) > 1e-12 {
			t.Fatalf("ma = %v, want %v", ma, want)
		}
	}
	if got := MovingAverage(xs, 0); got[0] != 1 || got[4] != 5 {
		t.Fatalf("window 0 must behave as 1: %v", got)
	}
	if got := MovingAverage(nil, 3); len(got) != 0 {
		t.Fatal("empty input must give empty output")
	}
}
