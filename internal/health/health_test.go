package health

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// fakeClock is a hand-advanced microsecond clock.
type fakeClock struct {
	mu sync.Mutex
	us int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.us
}

func (c *fakeClock) advance(us int64) {
	c.mu.Lock()
	c.us += us
	c.mu.Unlock()
}

func newTestDetector(t *testing.T, clk *fakeClock, peers []uint64, onTr func(Transition)) *Detector {
	t.Helper()
	d, err := New(peers, Options{
		TickIntervalUs: 1000,
		Clock:          clk.now,
		OnTransition:   onTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetectorOptionValidation(t *testing.T) {
	clk := &fakeClock{}
	if _, err := New(nil, Options{Clock: clk.now}); err == nil {
		t.Fatal("want error for TickIntervalUs <= 0")
	}
	if _, err := New(nil, Options{TickIntervalUs: 1000}); err == nil {
		t.Fatal("want error for nil Clock")
	}
}

func TestDetectorSilenceEscalates(t *testing.T) {
	clk := &fakeClock{}
	var trs []Transition
	d := newTestDetector(t, clk, []uint64{1, 2}, func(tr Transition) { trs = append(trs, tr) })

	// Peer 1 stays chatty; peer 2 goes silent.
	for i := 0; i < 4; i++ {
		clk.advance(1000)
		d.Observe(1)
		d.Tick()
	}
	want := []Transition{
		{Peer: 2, From: Up, To: Suspect, AtUs: 2000, SinceActivityUs: 2000, ThresholdUs: 2000},
		{Peer: 2, From: Suspect, To: Down, AtUs: 3000, SinceActivityUs: 3000, ThresholdUs: 3000},
	}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("transitions = %+v, want %+v", trs, want)
	}
	if s, _ := d.State(1); s != Up {
		t.Fatalf("peer 1 state = %v, want Up", s)
	}
	if s, _ := d.State(2); s != Down {
		t.Fatalf("peer 2 state = %v, want Down", s)
	}
	if d.AllUp() {
		t.Fatal("AllUp should be false with peer 2 down")
	}
}

func TestDetectorObserveRecovers(t *testing.T) {
	clk := &fakeClock{}
	var trs []Transition
	d := newTestDetector(t, clk, []uint64{7}, func(tr Transition) { trs = append(trs, tr) })

	clk.advance(3000)
	d.Tick() // straight to Down (gap hits both thresholds; Down wins)
	if len(trs) != 1 || trs[0].To != Down || trs[0].From != Up {
		t.Fatalf("want single Up→Down, got %+v", trs)
	}
	clk.advance(10)
	d.Observe(7)
	if len(trs) != 2 || trs[1].To != Up || trs[1].From != Down {
		t.Fatalf("want Down→Up recovery, got %+v", trs)
	}
	if !d.AllUp() {
		t.Fatal("AllUp should be true after recovery")
	}
	// Recovery resets the silence timer: one more interval is not enough
	// to re-suspect.
	clk.advance(1000)
	d.Tick()
	if len(trs) != 2 {
		t.Fatalf("unexpected extra transitions: %+v", trs)
	}
}

func TestDetectorWatchSet(t *testing.T) {
	clk := &fakeClock{}
	var trs []Transition
	d := newTestDetector(t, clk, []uint64{1, 2, 3}, func(tr Transition) { trs = append(trs, tr) })

	d.SetWatch([]uint64{2}) // follower: watch only the leader
	if got := d.Watched(); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Watched = %v, want [2]", got)
	}
	clk.advance(5000)
	d.Tick()
	// Only peer 2 judged; peers 1 and 3 silent but unwatched.
	if len(trs) != 1 || trs[0].Peer != 2 || trs[0].To != Down {
		t.Fatalf("want only peer 2 Down, got %+v", trs)
	}

	// Re-watching a silent peer restarts it Up with a fresh timer and no
	// transition: watching is a decision, not evidence.
	d.SetWatch([]uint64{1, 3})
	if len(trs) != 1 {
		t.Fatalf("SetWatch must not emit transitions, got %+v", trs)
	}
	if s, _ := d.State(1); s != Up {
		t.Fatalf("newly watched peer state = %v, want Up", s)
	}
	clk.advance(1999)
	d.Tick()
	if len(trs) != 1 {
		t.Fatalf("fresh watch timer violated: %+v", trs)
	}
	clk.advance(1)
	d.Tick()
	if len(trs) != 3 { // peers 1 and 3 Suspect, ascending order
		t.Fatalf("want 3 transitions, got %+v", trs)
	}
	if trs[1].Peer != 1 || trs[2].Peer != 3 {
		t.Fatalf("Tick order must be ascending peer id, got %+v", trs[1:])
	}

	// Unknown ids in the watch set are added to the table.
	d.SetWatch([]uint64{9})
	if _, ok := d.State(9); !ok {
		t.Fatal("peer 9 should be known after SetWatch")
	}
}

func TestDetectorResetClearsVerdicts(t *testing.T) {
	clk := &fakeClock{}
	var trs []Transition
	d := newTestDetector(t, clk, []uint64{1, 2}, func(tr Transition) { trs = append(trs, tr) })
	clk.advance(4000)
	d.Tick()
	if len(trs) != 2 {
		t.Fatalf("want both peers Down, got %+v", trs)
	}
	d.Reset()
	if len(trs) != 2 {
		t.Fatalf("Reset must not emit transitions, got %+v", trs)
	}
	if !d.AllUp() {
		t.Fatal("AllUp should hold after Reset")
	}
	clk.advance(1000)
	d.Tick()
	if len(trs) != 2 {
		t.Fatalf("Reset must restart silence timers, got %+v", trs)
	}
}

func TestDetectorSnapshotAndTelemetry(t *testing.T) {
	clk := &fakeClock{}
	reg := telemetry.New()
	reg.SetClock(clk.now)
	d, err := New([]uint64{1, 2}, Options{
		TickIntervalUs: 1000,
		Clock:          clk.now,
		Telemetry:      reg,
		Owner:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2500)
	d.Observe(1)
	d.Tick()
	snap := d.Snapshot()
	want := []PeerStatus{
		{Peer: 1, State: "up", Watched: true, SinceActivityUs: 0},
		{Peer: 2, State: "suspect", Watched: true, SinceActivityUs: 2500},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %+v, want %+v", snap, want)
	}
	if got := reg.Counter("health/transitions_suspect").Value(); got != 1 {
		t.Fatalf("transitions_suspect = %d, want 1", got)
	}
	clk.advance(2999) // peer 2 hits Down; peer 1's gap stays below threshold
	d.Tick()
	d.Observe(2)
	if got := reg.Counter("health/transitions_down").Value(); got != 1 {
		t.Fatalf("transitions_down = %d, want 1", got)
	}
	if got := reg.Counter("health/transitions_up").Value(); got != 1 {
		t.Fatalf("transitions_up = %d, want 1", got)
	}
}

// TestDetectorConcurrentObserve exercises Observe/Tick/Snapshot races
// under -race.
func TestDetectorConcurrentObserve(t *testing.T) {
	clk := &fakeClock{}
	d := newTestDetector(t, clk, []uint64{1, 2, 3, 4}, nil)
	var wg sync.WaitGroup
	for p := uint64(1); p <= 4; p++ {
		wg.Add(1)
		go func(p uint64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Observe(p)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			clk.advance(100)
			d.Tick()
			d.Snapshot()
			d.AllUp()
		}
	}()
	wg.Wait()
}

// TestWatchSetPolicy pins the three arms of the shared watch-set rule
// (cluster peers and the p2pfl-node daemon both feed SetWatch from it).
func TestWatchSetPolicy(t *testing.T) {
	members := []uint64{1, 2, 3}
	for _, tc := range []struct {
		name         string
		isLeader     bool
		self, leader uint64
		want         []uint64
	}{
		{"leader watches every co-member", true, 2, 2, []uint64{1, 3}},
		{"follower watches its leader", false, 2, 3, []uint64{3}},
		{"leaderless follower watches nobody", false, 2, 0, nil},
		{"candidate that last led itself watches nobody", false, 2, 2, nil},
	} {
		if got := WatchSet(tc.isLeader, tc.self, tc.leader, members); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: WatchSet = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := WatchSet(true, 1, 1, []uint64{1}); got != nil {
		t.Errorf("sole member as leader: WatchSet = %v, want nil", got)
	}
}
