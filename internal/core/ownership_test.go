package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/sac"
)

// TestWarmRoundAllocatesNoModelVector pins the System's ownership of the
// model vectors and blocks a round writes — every subgroup's SAC
// average, the global model, under SecureUpper each leader's upper-SAC
// input, and under compression each upload's block and the global
// model's: a warm round allocates less than dim bytes, an eighth of one
// model vector, where making a fresh average per subgroup and a fresh
// global model cost (m+1)·8·dim and fresh top-k blocks 12·k each. It
// covers the k-out-of-n recovery path, the secure upper layer, dense and
// top-k compression with and without quantized values, the guarded SAC
// (whose leader's audit claims n subtotals) and the one-layer baseline.
func TestWarmRoundAllocatesNoModelVector(t *testing.T) {
	const dim = 1 << 16
	sizes := []int{3, 3, 3}
	models := randModels(rand.New(rand.NewSource(21)), 9, dim)
	// With leader 0 and k = n−1 the leader lacks the last peer's subtotal,
	// so that peer's crash after sharing forces a recovery.
	recovery := RoundSpec{Crash: map[int]sac.CrashPlan{0: {2: sac.AfterShares}}}
	for _, tc := range []struct {
		name     string
		cfg      Config
		spec     RoundSpec
		baseline bool
	}{
		{name: "plain", cfg: Config{Sizes: sizes}},
		{name: "k-of-n recovery", cfg: Config{Sizes: sizes, K: []int{2}}, spec: recovery},
		{name: "secure upper", cfg: Config{Sizes: sizes, SecureUpper: true}},
		{name: "quant8", cfg: Config{Sizes: sizes, Compression: compress.Config{Scheme: compress.Quant8}}},
		{name: "top-k", cfg: Config{Sizes: sizes, Compression: compress.Config{Scheme: compress.TopK, Frac: 0.1}}},
		{name: "top-k quant16", cfg: Config{Sizes: sizes, Compression: compress.Config{Scheme: compress.TopKQuant16, Frac: 0.1}}},
		{name: "guarded", cfg: Config{Sizes: sizes, Guard: &sac.Guard{ShareBound: 1e3}}},
		{name: "baseline", cfg: Config{Sizes: sizes}, baseline: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.cfg, rand.New(rand.NewSource(22)))
			if err != nil {
				t.Fatal(err)
			}
			round := aggregateRound(sys, models, tc.spec)
			if tc.baseline {
				round = func() (*RoundResult, error) { return sys.BaselineAggregate(models) }
			}
			if got := roundAlloc(t, round); got >= dim {
				t.Errorf("a warm round allocates %d bytes, want under %d (one model vector is %d)", got, dim, 8*dim)
			}
		})
	}
}

// TestRoundOnModelsAliasingItsLastGlobal: a round writes its global model
// into the vector the System's last round returned as Global, and a
// caller whose peers resume from that vector hands it back as their
// models — RunTraining's DP privatizes each update against it, and a
// peer that did not train would upload it as it is. Such a round is, bit
// for bit, the same round on copies of it.
func TestRoundOnModelsAliasingItsLastGlobal(t *testing.T) {
	const dim = 4096
	sizes := []int{3, 3, 3}
	for _, tc := range []struct {
		name     string
		cfg      Config
		baseline bool
	}{
		{name: "plain", cfg: Config{Sizes: sizes, K: []int{2}}},
		{name: "top-k", cfg: Config{Sizes: sizes, K: []int{2}, Compression: compress.Config{Scheme: compress.TopK, Frac: 0.1}}},
		{name: "secure upper", cfg: Config{Sizes: sizes, K: []int{2}, SecureUpper: true}},
		{name: "baseline", cfg: Config{Sizes: sizes}, baseline: true},
	} {
		// run makes two rounds on a fresh system, every other model of the
		// second being the first round's Global itself, or a copy of it.
		run := func(alias bool) *RoundResult {
			sys, err := NewSystem(tc.cfg, rand.New(rand.NewSource(31)))
			if err != nil {
				t.Fatal(err)
			}
			round := sys.BaselineAggregate
			if !tc.baseline {
				round = func(models [][]float64) (*RoundResult, error) { return sys.AggregateRound(models, RoundSpec{}) }
			}
			first, err := round(randModels(rand.New(rand.NewSource(32)), 9, dim))
			if err != nil {
				t.Fatal(err)
			}
			models := randModels(rand.New(rand.NewSource(33)), 9, dim)
			for i := 0; i < len(models); i += 2 {
				models[i] = first.Global
				if !alias {
					models[i] = slices.Clone(first.Global)
				}
			}
			res, err := round(models)
			if err != nil {
				t.Fatal(err)
			}
			if alias && !sharesArray(res.Global, first.Global) {
				t.Fatalf("%s: the round did not write its global model into the last one's vector", tc.name)
			}
			return res
		}
		if !sameRound(run(true), run(false)) {
			t.Errorf("%s: a round on models aliasing the last Global differs from the round on copies", tc.name)
		}
	}
}
