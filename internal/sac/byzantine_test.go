package sac

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// boundedModels draws coordinates with |w[d]| ∈ [1, w]: bounded above so
// honest shares respect a ShareBound of w, bounded away from zero so a
// ×PoisonScaleFactor forgery provably leaves the range.
func boundedModels(r *rand.Rand, n, dim int, w float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		m := make([]float64, dim)
		for j := range m {
			sign := 1.0
			if r.Intn(2) == 1 {
				sign = -1
			}
			m[j] = sign * (1 + r.Float64()*(w-1))
		}
		out[i] = m
	}
	return out
}

// effectiveMean is the plaintext mean over who, with each peer's model
// replaced by what its adversary behavior actually contributes.
func effectiveMean(models [][]float64, who []int, plan AdversaryPlan) []float64 {
	dim := len(models[0])
	avg := make([]float64, dim)
	for _, i := range who {
		w := models[i]
		switch plan[i] {
		case ByzPoisonScale:
			w = attackModel(ByzPoisonScale, w)
		case ByzPoisonSignFlip:
			w = attackModel(ByzPoisonSignFlip, w)
		}
		for j, v := range w {
			avg[j] += v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(who))
	}
	return avg
}

func guardedRun(t *testing.T, seed int64, n, k, leader int, plan AdversaryPlan, w float64) (*Result, [][]float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	models := boundedModels(r, n, 6, w)
	mesh := transport.NewMesh(n, nil)
	cfg := Config{
		N: n, K: k, Leader: leader, Mode: ModeLeader, Rng: r,
		Adversary: plan, Guard: &Guard{ShareBound: w, CrossCheck: true},
	}
	res, err := Run(mesh, cfg, models, nil)
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	return res, models
}

func TestGuardConfigValidation(t *testing.T) {
	mesh := transport.NewMesh(3, nil)
	models := boundedModels(rand.New(rand.NewSource(1)), 3, 2, 5)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cross-check outside leader mode", Config{N: 3, K: 3, Mode: ModeBroadcast, Guard: &Guard{ShareBound: 5, CrossCheck: true}}},
		{"adversary peer out of range", Config{N: 3, K: 3, Mode: ModeBroadcast, Adversary: AdversaryPlan{7: ByzZeroSubtotal}}},
		{"unknown behavior", Config{N: 3, K: 3, Mode: ModeBroadcast, Adversary: AdversaryPlan{0: Behavior("set-fire")}}},
	}
	for _, tc := range cases {
		if _, err := Run(mesh, tc.cfg, models, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPoisonScaleExcludedByRangeGuard(t *testing.T) {
	plan := AdversaryPlan{2: ByzPoisonScale}
	res, models := guardedRun(t, 11, 5, 3, 0, plan, 10)
	if len(res.Excluded) != 1 || res.Excluded[0] != 2 {
		t.Fatalf("excluded = %v, want [2]", res.Excluded)
	}
	for _, p := range res.Contributors {
		if p == 2 {
			t.Fatalf("excluded peer still among contributors %v", res.Contributors)
		}
	}
	// Post-exclusion the average is exactly the honest contributors' mean.
	if d := maxAbsDiff(res.Avg, effectiveMean(models, res.Contributors, nil)); d > 1e-9 {
		t.Fatalf("post-exclusion average off by %g", d)
	}
}

func TestSignFlipStaysInRangeAndShiftsMean(t *testing.T) {
	// A sign-flipped model is a lie the range guard cannot see (shares
	// stay in [−W, W]); the cross-check holds the protocol to exactly the
	// flipped contribution — robustness here is the bounded shift, not
	// exclusion.
	plan := AdversaryPlan{1: ByzPoisonSignFlip}
	res, models := guardedRun(t, 12, 5, 3, 0, plan, 10)
	if len(res.Excluded) != 0 || res.Mismatches != 0 || res.LeaderAccused {
		t.Fatalf("in-range lie was flagged: excluded=%v mismatches=%d accused=%v",
			res.Excluded, res.Mismatches, res.LeaderAccused)
	}
	if d := maxAbsDiff(res.Avg, effectiveMean(models, res.Contributors, plan)); d > 1e-9 {
		t.Fatalf("average off flipped-effective mean by %g", d)
	}
}

func TestInflatedSubtotalsOutvotedByMedian(t *testing.T) {
	for _, b := range []Behavior{ByzInflateSubtotal, ByzZeroSubtotal} {
		plan := AdversaryPlan{3: b}
		res, models := guardedRun(t, 13, 5, 3, 0, plan, 10)
		if res.Mismatches == 0 {
			t.Fatalf("%s: corrupted subtotal copies raised no mismatch", b)
		}
		// The adversary lies about sums, not its model: the 2-of-3 honest
		// holder majority outvotes it, leaving only summation-order noise.
		if d := maxAbsDiff(res.Avg, effectiveMean(models, res.Contributors, nil)); d > 1e-9 {
			t.Fatalf("%s: median failed to outvote liar (off by %g)", b, d)
		}
		if len(res.Excluded) != 0 {
			t.Fatalf("%s: subtotal lies must not trigger share exclusion, got %v", b, res.Excluded)
		}
	}
}

func TestCorruptSharesFlaggedAndBounded(t *testing.T) {
	plan := AdversaryPlan{4: ByzCorruptShares}
	res, models := guardedRun(t, 14, 5, 3, 0, plan, 10)
	if res.Mismatches == 0 && len(res.Excluded) == 0 {
		t.Fatal("corrupted shares raised neither mismatch nor exclusion")
	}
	// One perturbed share (≤ CorruptNoiseAmp per coordinate) can survive
	// per subtotal; the damage to the average stays below 1.
	if d := maxAbsDiff(res.Avg, effectiveMean(models, res.Contributors, nil)); d > 1 {
		t.Fatalf("corrupt-shares deviation %g exceeds bound 1", d)
	}
}

func TestEquivocationDetectedOnlyWhenGuarded(t *testing.T) {
	const n, k, leader = 5, 3, 2
	plan := AdversaryPlan{leader: ByzEquivocate}

	res, models := guardedRun(t, 15, n, k, leader, plan, 10)
	if !res.LeaderAccused {
		t.Fatal("guarded audit failed to convict the equivocating leader")
	}
	if d := maxAbsDiff(res.Avg, effectiveMean(models, res.Contributors, nil)); d > 1e-9 {
		t.Fatalf("audit returned a non-honest combination (off by %g)", d)
	}

	// Sharpness: the identical round without the guard swallows the lie.
	r := rand.New(rand.NewSource(15))
	models = boundedModels(r, n, 6, 10)
	mesh := transport.NewMesh(n, nil)
	plain, err := Run(mesh, Config{N: n, K: k, Leader: leader, Mode: ModeLeader, Rng: r, Adversary: plan}, models, nil)
	if err != nil {
		t.Fatalf("unguarded run: %v", err)
	}
	if plain.LeaderAccused {
		t.Fatal("unguarded run has no audit, yet reported an accusation")
	}
	honest := effectiveMean(models, plain.Contributors, nil)
	if d := maxAbsDiff(plain.Avg, honest); math.Abs(d-EquivocateOffset) > 1e-6 {
		t.Fatalf("unguarded equivocation shifted mean by %g, want ≈ %g", d, EquivocateOffset)
	}
}

func TestRangeGuardSurvivesAdversarialMajorityOfSenders(t *testing.T) {
	// Three of four peers send provably forged shares; the single honest
	// peer's accusations exclude them all, leaving its own model as the
	// average. Exclusion is about evidence, not majority.
	plan := AdversaryPlan{0: ByzPoisonScale, 1: ByzPoisonScale, 3: ByzPoisonScale}
	res, models := guardedRun(t, 16, 4, 2, 2, plan, 10)
	if len(res.Contributors) != 1 || res.Contributors[0] != 2 {
		t.Fatalf("contributors = %v, want [2]", res.Contributors)
	}
	if d := maxAbsDiff(res.Avg, models[2]); d > 1e-9 {
		t.Fatalf("average should be the lone honest model, off by %g", d)
	}
}

func TestByzantineRoundsAreDeterministic(t *testing.T) {
	run := func() (*Result, [][]float64) {
		return guardedRun(t, 17, 6, 4, 1, AdversaryPlan{0: ByzCorruptShares, 5: ByzInflateSubtotal}, 10)
	}
	a, _ := run()
	b, _ := run()
	if maxAbsDiff(a.Avg, b.Avg) != 0 || a.Mismatches != b.Mismatches ||
		len(a.Excluded) != len(b.Excluded) || a.LeaderAccused != b.LeaderAccused {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestNoHonestWitnessMeansNoExclusions(t *testing.T) {
	// Exclusion requires an honest receiver to witness the forged share.
	// With every peer Byzantine there is none, so the round completes
	// ungarded-style (garbage in, garbage out) rather than accusing
	// anyone — the guard never manufactures evidence.
	plan := AdversaryPlan{0: ByzPoisonScale, 1: ByzPoisonScale, 2: ByzPoisonScale, 3: ByzPoisonScale}
	r := rand.New(rand.NewSource(18))
	models := boundedModels(r, 4, 3, 10)
	mesh := transport.NewMesh(4, nil)
	cfg := Config{N: 4, K: 2, Leader: 0, Mode: ModeLeader, Rng: r,
		Adversary: plan, Guard: &Guard{ShareBound: 10, CrossCheck: true}}
	res, err := Run(mesh, cfg, models, nil)
	if err != nil {
		t.Fatalf("all-byzantine round: %v", err)
	}
	if len(res.Excluded) != 0 {
		t.Fatalf("no honest witness, yet exclusions %v", res.Excluded)
	}
}

// TestGuardFields guards the Guard's surface: the two defences a caller
// arms, and nothing a caller has never set (the mismatch tolerance and
// the subtotal combiner are fixed).
func TestGuardFields(t *testing.T) {
	typ := reflect.TypeOf(Guard{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if want := []string{"ShareBound", "CrossCheck"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sac.Guard fields = %v, want %v", got, want)
	}
}
