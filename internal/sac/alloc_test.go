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
// 2·8·dim, where storing every share before summing it cost about
// 20·8·dim at this shape.

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
