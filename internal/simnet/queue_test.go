package simnet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/raft"
)

// TestQueueMatchesStableSort runs random schedules — equal times, zero
// and negative delays, events that schedule events while they run —
// against a reference: the pending events kept in schedule order and
// stable-sorted on their time, whose head is what must run next. After
// every Step the queue's spare capacity holds no closure.
func TestQueueMatchesStableSort(t *testing.T) {
	delays := []Duration{-2 * Millisecond, -1, 0, 0, 1, Millisecond, Millisecond, 2 * Millisecond, 15 * Millisecond}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type pending struct {
			at Time
			id int
		}
		var ref []pending
		ran, ids := -1, 0
		var schedule func(depth int)
		schedule = func(depth int) {
			d := delays[rng.Intn(len(delays))]
			if rng.Intn(4) == 0 {
				d = Duration(rng.Intn(3000))
			}
			id := ids
			ids++
			ref = append(ref, pending{at: s.Now() + Time(max(d, 0)), id: id})
			s.Schedule(d, func() {
				ran = id
				if depth < 4 {
					for k := rng.Intn(4); k > 0; k-- {
						schedule(depth + 1)
					}
				}
			})
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		for steps := 0; len(ref) > 0; steps++ {
			slices.SortStableFunc(ref, func(a, b pending) int { return cmp.Compare(a.at, b.at) })
			want := ref[0]
			ref = ref[1:]
			if !s.Step() {
				t.Fatalf("seed %d step %d: queue empty with %d events due", seed, steps, len(ref)+1)
			}
			if ran != want.id || s.Now() != want.at {
				t.Fatalf("seed %d step %d: ran event %d at %v, reference says %d at %v", seed, steps, ran, s.Now(), want.id, want.at)
			}
			for i, e := range s.events[len(s.events):cap(s.events)] {
				if e.fn != nil {
					t.Fatalf("seed %d step %d: spare slot %d still holds a closure", seed, steps, i)
				}
			}
		}
		if s.Step() {
			t.Fatalf("seed %d: queue ran an event the reference never scheduled", seed)
		}
	}
}

// TestRestartWithinATickArmsOneLoop crashes and restarts a host inside
// one tick interval, before the crashed incarnation's pending tick has
// fired. That tick must end its chain: a single-node group sends no
// messages, so its queue holds exactly its tick chains, and the node's
// ten-tick election timeout must take ten virtual milliseconds.
func TestRestartWithinATickArmsOneLoop(t *testing.T) {
	sim := New()
	g := NewGroup(sim, "solo", Uniform(0, 0), nil)
	cfg := raft.Config{ID: 1, Peers: []uint64{1}, ElectionTickMin: 10, ElectionTickMax: 11, HeartbeatTick: 2}
	n, err := raft.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Add(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(20*Millisecond + 500*Microsecond)
	if g.Leader() != 1 {
		t.Fatal("single node did not elect itself")
	}
	h.Crash()
	if err := h.Restart(cfg); err != nil {
		t.Fatal(err)
	}
	restarted := sim.Now()
	var ledAt Time
	h.OnStateChange = func(st raft.State, _, _ uint64) {
		if st == raft.Leader && ledAt == 0 {
			ledAt = sim.Now()
		}
	}
	sim.RunFor(50 * Millisecond)
	if len(sim.events) != 1 {
		t.Fatalf("one host has %d pending tick events, want 1", len(sim.events))
	}
	if got := Duration(ledAt - restarted); got != 10*Millisecond {
		t.Fatalf("10-tick election timeout fired after %v ms, want 10", got.Ms())
	}
}

// TestIdleGroupAllocatesPerMessageNotPerTick holds a led, idle five-node
// group to an allocation ceiling per virtual second that is a fraction
// of the second's tick count, and shows the count does not follow the
// tick rate: ticking twice as often, with the raft timers doubled so
// the same heartbeats flow, allocates the same.
func TestIdleGroupAllocatesPerMessageNotPerTick(t *testing.T) {
	// 62.5 heartbeat rounds a second to four followers and back: 500
	// messages, each one delivery closure plus its share of the sender's
	// outbox growth. Measured: 936 at either tick rate.
	const ceiling = 1250
	perSecond := func(tick Duration, electMin int) float64 {
		sim := New()
		g := newGroupCluster(t, sim, 5, electMin, 2*electMin, 15*Millisecond, 3)
		g.TickInterval = tick
		if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
			t.Fatal("no leader")
		}
		sim.RunFor(Second)
		return testing.AllocsPerRun(5, func() { sim.RunFor(Second) })
	}
	base := perSecond(Millisecond, 48)     // 5,000 ticks a second
	fine := perSecond(500*Microsecond, 96) // 10,000
	t.Logf("allocations per virtual second: %v at 5,000 ticks, %v at 10,000", base, fine)
	if base > ceiling || fine > ceiling {
		t.Fatalf("allocations per virtual second: %v at 5,000 ticks, %v at 10,000; ceiling %d", base, fine, ceiling)
	}
	if d := fine - base; d > 50 || d < -50 {
		t.Fatalf("allocations follow the tick rate: %v at 5,000 ticks a second, %v at 10,000", base, fine)
	}
}
