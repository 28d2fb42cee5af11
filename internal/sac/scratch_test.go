package sac

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// runOnce executes one aggregation on a fresh mesh with a fixed seed.
func runOnce(t *testing.T, cfg Config, models [][]float64, crash CrashPlan, seed int64) *Result {
	t.Helper()
	cfg.Rng = rand.New(rand.NewSource(seed))
	mesh := transport.NewMesh(cfg.N, nil)
	res, err := Run(mesh, cfg, models, crash)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Avg) != len(want.Avg) {
		t.Fatalf("avg dim %d, want %d", len(got.Avg), len(want.Avg))
	}
	for i := range want.Avg {
		if got.Avg[i] != want.Avg[i] {
			t.Fatalf("avg[%d] = %v, want %v (not bit-identical)", i, got.Avg[i], want.Avg[i])
		}
	}
	if len(got.Contributors) != len(want.Contributors) {
		t.Fatalf("contributors %v, want %v", got.Contributors, want.Contributors)
	}
	for i := range want.Contributors {
		if got.Contributors[i] != want.Contributors[i] {
			t.Fatalf("contributors %v, want %v", got.Contributors, want.Contributors)
		}
	}
	if len(got.Recovered) != len(want.Recovered) {
		t.Fatalf("recovered %v, want %v", got.Recovered, want.Recovered)
	}
}

// TestScratchBitIdenticalAcrossRounds is the reuse contract: a Scratch
// carried across consecutive rounds — including rounds exercising the
// crash/recovery path, where some running subtotals are never completed
// — must produce exactly the results of runs on a borrowed working set.
// Reuse may never leak one round's values into the next.
func TestScratchBitIdenticalAcrossRounds(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	models := randModels(r, 8, 57)
	sc := &Scratch{}
	for _, mode := range []struct {
		name  string
		cfg   Config
		crash CrashPlan
	}{
		{"leader-kofn", Config{N: 8, K: 5, Leader: 1, Mode: ModeLeader}, nil},
		{"leader-recovery", Config{N: 8, K: 5, Leader: 1, Mode: ModeLeader}, CrashPlan{3: AfterShares, 6: AfterShares}},
		{"broadcast", Config{N: 8, K: 8, Mode: ModeBroadcast}, nil},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for round := int64(0); round < 4; round++ {
				want := runOnce(t, mode.cfg, models, mode.crash, 100+round)
				withSc := mode.cfg
				withSc.Scratch = sc // same scratch across rounds AND subtests
				got := runOnce(t, withSc, models, mode.crash, 100+round)
				requireSameResult(t, got, want)
			}
		})
	}
}

// TestScratchSurvivesShapeChanges: a scratch fed rounds of different
// (N, dim) shapes re-provisions instead of corrupting.
func TestScratchSurvivesShapeChanges(t *testing.T) {
	sc := &Scratch{}
	shapes := []struct{ n, dim int }{{6, 40}, {4, 12}, {6, 40}, {3, 80}}
	for i, sh := range shapes {
		models := randModels(rand.New(rand.NewSource(int64(200+i))), sh.n, sh.dim)
		cfg := Config{N: sh.n, K: sh.n - 1, Leader: 0, Mode: ModeLeader}
		want := runOnce(t, cfg, models, nil, int64(300+i))
		cfg.Scratch = sc
		got := runOnce(t, cfg, models, nil, int64(300+i))
		requireSameResult(t, got, want)
	}
}

// TestScratchAvgDoesNotAliasScratch: Run's Result.Avg is the caller's,
// so it must stay stable when the scratch is reused by the next round,
// and two Runs in a row return averages of their own — a caller may hold
// several at once and combine them, as a FedAvg over subgroup SACs does.
func TestScratchAvgDoesNotAliasScratch(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	models := randModels(r, 5, 23)
	cfg := Config{N: 5, K: 4, Leader: 0, Mode: ModeLeader, Scratch: &Scratch{}}
	first := runOnce(t, cfg, models, nil, 1)
	snapshot := make([]float64, len(first.Avg))
	copy(snapshot, first.Avg)
	second := runOnce(t, cfg, models, nil, 2) // stomps all scratch buffers
	for i := range snapshot {
		if first.Avg[i] != snapshot[i] {
			t.Fatal("Result.Avg mutated by scratch reuse — it aliases scratch memory")
		}
	}
	if &first.Avg[len(first.Avg)-1] == &second.Avg[len(second.Avg)-1] {
		t.Fatal("two Runs on one scratch returned one average vector")
	}
}
