package health

import (
	"sync"
	"testing"
)

// Edge-case suite for verdict transitions: threshold boundaries,
// Suspect→Up flap races, watch-set changes taken mid-Tick (from inside
// a transition callback), and degenerate tick configurations.

// TestVerdictBoundaries drives silence gaps right up to, onto, and past
// each threshold. Thresholds are inclusive (gap ≥ bound trips) and a gap
// that already exceeds downAfter jumps Up→Down without visiting Suspect.
func TestVerdictBoundaries(t *testing.T) {
	const interval = 1000 // suspectAfter = 2000, downAfter = 3000
	cases := []struct {
		name  string
		gaps  []int64 // silence before each successive Tick
		want  []State // state after each Tick
		trans int     // transitions emitted in total
	}{
		{"just below suspect", []int64{1999}, []State{Up}, 0},
		{"exactly suspect", []int64{2000}, []State{Suspect}, 1},
		{"between thresholds", []int64{2999}, []State{Suspect}, 1},
		{"exactly down", []int64{3000}, []State{Down}, 1},
		{"skip straight to down", []int64{10000}, []State{Down}, 1},
		{"escalate in steps", []int64{2000, 1000}, []State{Suspect, Down}, 2},
		{"suspect is sticky", []int64{2000, 500}, []State{Suspect, Suspect}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{}
			var trans []Transition
			d := newTestDetector(t, clk, []uint64{1}, func(tr Transition) { trans = append(trans, tr) })
			elapsed := int64(0)
			for i, gap := range tc.gaps {
				elapsed += gap
				clk.advance(gap)
				d.Tick()
				if st, _ := d.State(1); st != tc.want[i] {
					t.Fatalf("after %dµs of silence: state %v, want %v", elapsed, st, tc.want[i])
				}
			}
			if len(trans) != tc.trans {
				t.Fatalf("emitted %d transitions, want %d: %+v", len(trans), tc.trans, trans)
			}
		})
	}
}

// TestSuspectUpFlapRace drives the full flap cycle repeatedly: silence
// to Suspect, one Observe back to Up, silence again. Every recovery must
// report From=Suspect, every relapse From=Up — no transition may ever
// skip a state it did not actually leave.
func TestSuspectUpFlapRace(t *testing.T) {
	clk := &fakeClock{}
	var trans []Transition
	d := newTestDetector(t, clk, []uint64{1}, func(tr Transition) { trans = append(trans, tr) })
	for cycle := 0; cycle < 5; cycle++ {
		clk.advance(2000)
		d.Tick()
		clk.advance(1)
		d.Observe(1)
	}
	if len(trans) != 10 {
		t.Fatalf("5 flap cycles emitted %d transitions, want 10", len(trans))
	}
	for i, tr := range trans {
		wantFrom, wantTo := Up, Suspect
		if i%2 == 1 {
			wantFrom, wantTo = Suspect, Up
		}
		if tr.From != wantFrom || tr.To != wantTo {
			t.Fatalf("transition %d: %v→%v, want %v→%v", i, tr.From, tr.To, wantFrom, wantTo)
		}
	}
	// A recovery seen by Observe must carry the real silence gap, so the
	// no-false-Down checkers can audit it.
	if trans[1].SinceActivityUs != 2001 {
		t.Fatalf("recovery reported %dµs of silence, want 2001", trans[1].SinceActivityUs)
	}
}

// TestObserveBeatsTickAtBoundary pins the race where activity arrives at
// the same instant a Tick would condemn the peer: the Observe rebases
// last-activity, so the Tick must see a zero gap and stay quiet.
func TestObserveBeatsTickAtBoundary(t *testing.T) {
	clk := &fakeClock{}
	d := newTestDetector(t, clk, []uint64{1}, func(tr Transition) {
		t.Fatalf("unexpected transition %+v", tr)
	})
	clk.advance(5000) // way past downAfter
	d.Observe(1)      // activity lands first
	d.Tick()
	if st, _ := d.State(1); st != Up {
		t.Fatalf("state %v after activity at the boundary, want Up", st)
	}
}

// TestSetWatchFromTransitionCallback changes the watch set from inside
// OnTransition — the exact mid-Tick re-entrancy a cluster manager hits
// when it reacts to a Down verdict by dropping the peer. Must not
// deadlock, and the dropped peer must stop being judged while the
// remaining watched peer still escalates in the same Tick sweep.
func TestSetWatchFromTransitionCallback(t *testing.T) {
	clk := &fakeClock{}
	var d *Detector
	var trans []Transition
	var err error
	d, err = New([]uint64{1, 2}, Options{
		TickIntervalUs: 1000,
		Clock:          clk.now,
		OnTransition: func(tr Transition) {
			trans = append(trans, tr)
			if tr.Peer == 1 && tr.To == Down {
				d.SetWatch([]uint64{2}) // evict the condemned peer mid-sweep
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(3000)
	d.Tick() // both peers cross downAfter; peer 1's callback evicts it
	if len(trans) != 2 {
		t.Fatalf("emitted %d transitions, want 2 (both peers were silent): %+v", len(trans), trans)
	}
	if got := d.Watched(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("watch set %v after eviction, want [2]", got)
	}
	// The evicted peer keeps its last verdict but is no longer judged…
	clk.advance(10000)
	d.Tick()
	if st, _ := d.State(1); st != Down {
		t.Fatalf("evicted peer state %v, want frozen Down", st)
	}
	// …and re-watching starts it Up from fresh activity, silently.
	before := len(trans)
	d.SetWatch([]uint64{1, 2})
	if st, _ := d.State(1); st != Up {
		t.Fatalf("re-watched peer state %v, want Up", st)
	}
	if len(trans) != before {
		t.Fatal("re-watching emitted a transition; watching is not evidence")
	}
}

// TestWatchUnknownPeerMidLife adds a peer the detector has never seen
// via SetWatch: it must be adopted Up with a fresh activity base, then
// escalate on real silence like any other peer.
func TestWatchUnknownPeerMidLife(t *testing.T) {
	clk := &fakeClock{}
	d := newTestDetector(t, clk, []uint64{1}, nil)
	clk.advance(2500)
	d.SetWatch([]uint64{1, 9}) // 9 unknown; 1 keeps its silence clock
	if st, known := d.State(9); !known || st != Up {
		t.Fatalf("adopted peer: state %v known %v, want Up true", st, known)
	}
	d.Tick()
	if st, _ := d.State(9); st != Up {
		t.Fatalf("adopted peer condemned with no real silence: %v", st)
	}
	if st, _ := d.State(1); st != Suspect {
		t.Fatalf("pre-existing peer state %v, want Suspect (2500µs of silence)", st)
	}
	clk.advance(2000)
	d.Tick()
	if st, _ := d.State(9); st != Suspect {
		t.Fatalf("adopted peer state %v after 2000µs silence, want Suspect", st)
	}
}

// TestDegenerateTickConfigs exercises the config floor: zero interval,
// negative interval, negative tick counts, and the inverted ordering are
// all rejected; the zero-tick defaults still apply above a valid floor.
func TestDegenerateTickConfigs(t *testing.T) {
	clk := &fakeClock{}
	bad := []Options{
		{TickIntervalUs: 0, Clock: clk.now},
		{TickIntervalUs: -5, Clock: clk.now},
	}
	for i, o := range bad {
		if _, err := New([]uint64{1}, o); err == nil {
			t.Errorf("case %d: options %+v accepted", i, o)
		}
	}
	d, err := New([]uint64{1}, Options{TickIntervalUs: 7, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if d.suspectAfter != 14 || d.downAfter != 21 {
		t.Fatalf("suspectAfter %d downAfter %d, want 14/21", d.suspectAfter, d.downAfter)
	}
}

// TestConcurrentFlapConvergence races Tick against Observe across many
// goroutine interleavings, then quiesces: whatever interleaving ran, a
// peer with fresh activity must end Up. Run under -race via make race.
func TestConcurrentFlapConvergence(t *testing.T) {
	clk := &fakeClock{}
	d := newTestDetector(t, clk, []uint64{1, 2, 3}, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.advance(700)
				d.Tick()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				d.Observe(uint64(1 + i%3))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		d.Snapshot()
	}
	close(stop)
	wg.Wait()
	for _, p := range []uint64{1, 2, 3} {
		d.Observe(p)
	}
	d.Tick()
	if !d.AllUp() {
		t.Fatalf("peers not Up after fresh activity: %+v", d.Snapshot())
	}
}
