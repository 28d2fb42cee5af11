package simnet

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/raft"
)

// TestQueueMatchesStableSort runs random schedules — equal times, zero
// and negative delays, events that schedule events while they run —
// against a reference: the pending events kept in schedule order and
// stable-sorted on their time, whose head is what must run next. The
// schedules include bursts of 30 or more events on one instant, as a
// heartbeat round's messages landing on one tick make; events that
// schedule for now while their instant drains; and delays a multiple of
// openSlots µs apart, whose instants collide in the open table so a
// second bucket opens behind the first. After every Step no bucket, in the heap or on the free
// list, holds a closure outside its pending events.
func TestQueueMatchesStableSort(t *testing.T) {
	delays := []Duration{-2 * Millisecond, -1, 0, 0, 1, openSlots, 2 * openSlots, Millisecond, Millisecond, Millisecond + openSlots, 2 * Millisecond, 15 * Millisecond}
	sawBurst, sawTwin := false, false
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
			burst := 1
			if depth == 0 && rng.Intn(8) == 0 {
				burst = 30 + rng.Intn(10)
			}
			for ; burst > 0; burst-- {
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
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		for steps := 0; len(ref) > 0; steps++ {
			// The head of the stable sort: the first pending event of
			// the earliest time.
			head := 0
			for i, p := range ref {
				if p.at < ref[head].at {
					head = i
				}
			}
			want := ref[head]
			ref = slices.Delete(ref, head, head+1)
			if !s.Step() {
				t.Fatalf("seed %d step %d: queue empty with %d events due", seed, steps, len(ref)+1)
			}
			if ran != want.id || s.Now() != want.at {
				t.Fatalf("seed %d step %d: ran event %d at %v, reference says %d at %v", seed, steps, ran, s.Now(), want.id, want.at)
			}
			if s.pending != len(ref) {
				t.Fatalf("seed %d step %d: queue counts %d pending events, reference %d", seed, steps, s.pending, len(ref))
			}
			checkNoClosureRetained(t, s, seed, steps)
			for i := range s.heap {
				if sawBurst && sawTwin {
					break
				}
				sawBurst = sawBurst || len(s.heap[i].b.fns) >= 30
				for j := range i {
					sawTwin = sawTwin || s.heap[j].at == s.heap[i].at
				}
			}
		}
		if s.Step() {
			t.Fatalf("seed %d: queue ran an event the reference never scheduled", seed)
		}
	}
	if !sawBurst || !sawTwin {
		t.Fatalf("schedules never reached the shapes under test: a 30-event instant %v, two buckets on one instant %v", sawBurst, sawTwin)
	}
}

// checkNoClosureRetained fails if any bucket holds a closure that has
// already run or sits in spare capacity: every heap bucket outside
// fns[head:len], and every free bucket up to its capacity.
func checkNoClosureRetained(t *testing.T, s *Sim, seed int64, steps int) {
	t.Helper()
	for _, e := range s.heap {
		b := e.b
		for i, fn := range b.fns[:cap(b.fns)] {
			if fn != nil && (i < b.head || i >= len(b.fns)) {
				t.Fatalf("seed %d step %d: bucket at %v keeps a closure in slot %d outside [%d,%d)", seed, steps, b.at, i, b.head, len(b.fns))
			}
		}
	}
	for _, b := range s.free {
		if b.at != -1 {
			t.Fatalf("seed %d step %d: free bucket still claims instant %v", seed, steps, b.at)
		}
		for i, fn := range b.fns[:cap(b.fns)] {
			if fn != nil {
				t.Fatalf("seed %d step %d: free bucket keeps a closure in slot %d", seed, steps, i)
			}
		}
	}
}

// TestRestartWithinATickArmsOneLoop crashes and restarts a host inside
// one tick interval, before the tick block that held the crashed
// incarnation's next tick has fired. That block must tick nothing and
// schedule nothing: a single-node group sends no messages, so its queue
// holds exactly one tick block, the restarted host's, and the node's
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
	if sim.pending != 1 {
		t.Fatalf("one host has %d pending tick events, want 1", sim.pending)
	}
	if got := Duration(ledAt - restarted); got != 10*Millisecond {
		t.Fatalf("10-tick election timeout fired after %v ms, want 10", got.Ms())
	}
}

// TestQueueHoldsInstantsNotEvents pins the premise of bucketing the
// queue by instant: in a led, idle five-node group on the paper's 15 ms
// network, every pending event lies within one delivery latency of now
// and on the tick grid, so the heap never holds more than that many
// tick intervals' worth of instants (plus the one draining and a
// margin), and every live host's next tick is a pending event.
func TestQueueHoldsInstantsNotEvents(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 48, 96, 15*Millisecond, 3)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no leader")
	}
	maxInstants := int(15*Millisecond/g.TickInterval) + 2
	most := 0
	for end := sim.Now() + Time(Second); sim.Now() < end; {
		if !sim.Step() {
			t.Fatal("queue ran dry")
		}
		if len(sim.heap) > maxInstants {
			t.Fatalf("at %v ms the heap holds %d instants, want ≤ %d", sim.Now().Ms(), len(sim.heap), maxInstants)
		}
		blocks := map[*tickBlock]bool{}
		for _, id := range g.IDs() {
			if h := g.Host(id); !h.Down() {
				blocks[h.block] = true
			}
		}
		if blocks[nil] || sim.pending < len(blocks) {
			t.Fatalf("at %v ms %d events are pending for %d tick blocks (a live host in none: %v)", sim.Now().Ms(), sim.pending, len(blocks), blocks[nil])
		}
		most = max(most, sim.pending)
	}
	t.Logf("most pending: %d events", most)
}

// TestIdleGroupAllocatesPerMessageNotPerTick holds a led, idle five-node
// group to an allocation ceiling per virtual second that is a fraction
// of the second's tick count and of its message count, and shows the
// count does not follow the tick rate: ticking twice as often, with the
// raft timers doubled so the same heartbeats flow, allocates the same.
func TestIdleGroupAllocatesPerMessageNotPerTick(t *testing.T) {
	// 62.5 heartbeat rounds a second to four followers and back: 500
	// messages, each its share of the sender's outbox growth; a delivery
	// reuses one that has run. Measured: 436 at either tick rate.
	const ceiling = 600
	perSecond := func(tick Duration, electMin int) float64 {
		sim := New()
		g := NewGroup(sim, "test", Uniform(15*Millisecond, 0), rand.New(rand.NewSource(3)))
		g.TickInterval = tick // read when a host joins
		addNodes(t, g, 5, electMin, 2*electMin, 3)
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

// TestIdleGroupStepsPerMessageNotPerHost counts the events a led, idle
// five-node group runs in a virtual second: one per message delivered,
// and one per tick instant — one tick block ticks every host of the
// instant. Were tick events per host again, the events that are not
// deliveries would be 5,000 a second, not 1,000.
func TestIdleGroupStepsPerMessageNotPerHost(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 48, 96, 15*Millisecond, 3)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no leader")
	}
	sim.RunFor(Second)
	from, _ := g.OfferedTraffic()
	steps := 0
	for end := sim.Now() + Time(Second); sim.heap[0].at <= end; steps++ {
		sim.Step()
	}
	to, _ := g.OfferedTraffic()
	// Messages offered in the second's last 15 ms land after it, as many
	// as landed in its first 15 ms from before it: idle traffic is even.
	ticks := steps - int(to-from)
	t.Logf("%d events in a virtual second: %d messages, %d others", steps, to-from, ticks)
	if ticks > 1000+50 {
		t.Fatalf("%d events in a virtual second besides %d deliveries, want one per tick instant (1,000), not one per host tick (5,000)", ticks, to-from)
	}
}

// TestRunDeliveriesHoldNoMessage pins what a group's spare deliveries
// keep: nothing of the messages they carried — no entries, no snapshot —
// so reusing them retains no log a message once referenced.
func TestRunDeliveriesHoldNoMessage(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 3, 10, 20, 15*Millisecond, 1)
	sim.RunFor(Second)
	if len(g.free) == 0 {
		t.Fatal("no delivery went back to the group")
	}
	for i, d := range g.free {
		if !reflect.ValueOf(d.m).IsZero() {
			t.Fatalf("spare delivery %d still holds %+v", i, d.m)
		}
	}
}
