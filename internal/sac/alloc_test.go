package sac

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/transport"
)

// The allocation pin of the default path: with Config.Scratch nil a warm
// Run borrows its whole working set, so what a call allocates is the one
// vector that escapes (Result.Avg, 8·dim bytes) plus bookkeeping — under
// 2·8·dim, where allocating a vector for every share before summing it
// cost about 20·8·dim at this shape. The shares a peer holds until the
// round ends sit in the working set's share blocks or in the fabric's
// recycled receive vectors.

const (
	pinN, pinK, pinDim = 3, 2, 65_536
	pinWarm, pinCalls  = 2, 20
)

// pinnedRuns makes the warm-up aggregations on mesh, calls warmed, then
// makes the pinCalls aggregations a test measures.
func pinnedRuns(t *testing.T, mesh transport.Network, seed int64, warmed func()) {
	r := rand.New(rand.NewSource(seed))
	models := randModels(r, pinN, pinDim)
	run := func(calls int) {
		for c := 0; c < calls; c++ {
			if _, err := Run(mesh, Config{N: pinN, K: pinK, Mode: ModeLeader, Rng: r}, models, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}
	run(pinWarm)
	warmed()
	run(pinCalls)
}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

const pinBudget = 2 * 8 * pinDim // bytes per call

func TestDefaultRunAllocatesOnlyItsResult(t *testing.T) {
	tcp, err := transport.NewTCPMesh(pinN, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for name, mesh := range map[string]transport.Network{"mem": transport.NewMesh(pinN, nil), "tcp": tcp} {
		var start uint64
		pinnedRuns(t, mesh, 51, func() { start = allocated() })
		if perCall := (allocated() - start) / pinCalls; perCall >= pinBudget {
			t.Errorf("%s: %d bytes allocated per call, want < %d", name, perCall, pinBudget)
		}
	}
}

// TestWarmRunAllocationCount pins, object for object, what a warm Run
// allocates at the X-layer tree's dimension, 64, mesh included. Finish
// gathers the subtotals it sums into a list its Peer keeps across rounds,
// so the tiled sum costs no allocation per call, a peer's Divide keeps
// its share fractions on the stack, and a guarded leader writes each
// index's median into the audit claims it keeps across rounds (118
// allocations before: the claims and, per index, a median and its
// column).
func TestWarmRunAllocationCount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		crash  CrashPlan
		allocs float64
	}{
		{"leader k-of-n", Config{N: 3, K: 2, Mode: ModeLeader}, nil, 28},
		{"leader recovery", Config{N: 3, K: 2, Mode: ModeLeader}, CrashPlan{2: AfterShares}, 31},
		{"broadcast", Config{N: 3, K: 3, Mode: ModeBroadcast}, nil, 30},
		{"guarded", Config{N: 5, K: 3, Mode: ModeLeader, Guard: &Guard{ShareBound: 100}}, nil, 107},
	} {
		r := rand.New(rand.NewSource(1))
		models := randModels(r, tc.cfg.N, 64)
		tc.cfg.Rng = r
		run := func() {
			if _, err := Run(transport.NewMesh(tc.cfg.N, nil), tc.cfg, models, tc.crash); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != tc.allocs {
			t.Errorf("%s: a warm Run made %v allocations, want %v", tc.name, got, tc.allocs)
		}
	}
}

// TestSpareWorkingSetsServeTwoGoroutines is the same pin with two
// callers at once: the spare list holds a working set for each, so
// neither falls back to provisioning one per call (and, under -race, the
// list's hand-offs are what is being checked).
func TestSpareWorkingSetsServeTwoGoroutines(t *testing.T) {
	var warm, done sync.WaitGroup
	measuring := make(chan struct{})
	for g := 0; g < 2; g++ {
		warm.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			pinnedRuns(t, transport.NewMesh(pinN, nil), int64(53+g), func() {
				warm.Done()
				<-measuring
			})
		}(g)
	}
	warm.Wait()
	start := allocated()
	close(measuring)
	done.Wait()
	if perCall := (allocated() - start) / (2 * pinCalls); perCall >= pinBudget {
		t.Fatalf("%d bytes allocated per call with two concurrent callers, want < %d", perCall, pinBudget)
	}
}
