package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/raft"
)

func TestSimOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30*Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*Millisecond, func() { got = append(got, 2) })
	s.RunUntil(Time(25 * Millisecond))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("events up to 25ms: %v", got)
	}
	if s.Now() != Time(25*Millisecond) {
		t.Fatalf("now = %v", s.Now())
	}
	s.RunFor(10 * Millisecond)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("all events: %v", got)
	}
}

func TestSimSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(Millisecond, func() { got = append(got, i) })
	}
	s.RunFor(2 * Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.Schedule(Millisecond, tick)
		}
	}
	s.Schedule(Millisecond, tick)
	s.RunUntil(Time(20 * Millisecond))
	if count != 10 {
		t.Fatalf("ticks = %d", count)
	}
}

func TestSimNegativeDelayClamped(t *testing.T) {
	s := New()
	s.RunFor(5 * Millisecond)
	ran := false
	s.Schedule(-Millisecond, func() { ran = true })
	s.RunFor(0)
	if !ran {
		t.Fatal("negative-delay event must run immediately")
	}
}

func TestRunWhileNot(t *testing.T) {
	s := New()
	x := 0
	s.Schedule(10*Millisecond, func() { x = 1 })
	if s.RunWhileNot(func() bool { return x == 1 }, Time(5*Millisecond)) {
		t.Fatal("condition cannot be met by 5ms")
	}
	if !s.RunWhileNot(func() bool { return x == 1 }, Time(20*Millisecond)) {
		t.Fatal("condition must be met by 20ms")
	}
}

func newGroupCluster(t *testing.T, sim *Sim, n int, electMin, electMax int, latency Duration, seed int64) *Group {
	t.Helper()
	g := NewGroup(sim, "test", Uniform(latency), rand.New(rand.NewSource(seed)))
	addNodes(t, g, n, electMin, electMax, seed)
	return g
}

// addNodes adds raft nodes 1..n, each a voter of all n, to g.
func addNodes(t *testing.T, g *Group, n int, electMin, electMax int, seed int64) {
	t.Helper()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	for _, id := range ids {
		node, err := raft.NewNode(raft.Config{
			ID:              id,
			Peers:           ids,
			ElectionTickMin: electMin,
			ElectionTickMax: electMax,
			HeartbeatTick:   electMin / 3,
			Rng:             rand.New(rand.NewSource(seed*100 + int64(id))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(node); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGroupElectsLeaderUnderLatency(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, 1)
	ok := sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(2*Second))
	if !ok {
		t.Fatal("no leader within 2 virtual seconds")
	}
	// Sanity: with T=50ms timeouts the first election cannot complete
	// before ~50ms (a timeout must fire plus a round trip).
	if sim.Now() < Time(50*Millisecond) {
		t.Fatalf("leader at %v ms — too fast to be real", Duration(sim.Now()).Ms())
	}
}

func TestGroupLeaderCrashRecovery(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, 2)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(2*Second)) {
		t.Fatal("no initial leader")
	}
	// Let leadership stabilize, then crash the leader.
	sim.RunFor(200 * Millisecond)
	old := g.Leader()
	if old == raft.None {
		t.Fatal("leadership lost during stable period")
	}
	g.Host(old).Crash()
	crashAt := sim.Now()
	ok := sim.RunWhileNot(func() bool {
		l := g.Leader()
		return l != raft.None && l != old
	}, crashAt+Time(5*Second))
	if !ok {
		t.Fatal("no recovery within 5 virtual seconds")
	}
	elapsed := Duration(sim.Now() - crashAt)
	// The paper reports ~214ms average for U(50,100)ms timeouts; any
	// recovery should land within the same order of magnitude.
	if elapsed < 50*Millisecond || elapsed > 2*Second {
		t.Fatalf("recovery took %v ms — outside plausible range", elapsed.Ms())
	}
}

func TestGroupCommitPropagatesWithLatency(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 3, 50, 100, 15*Millisecond, 3)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(2*Second)) {
		t.Fatal("no leader")
	}
	commits := map[uint64]int{}
	for id, h := range g.hosts {
		id := id
		h.OnCommit = func(e raft.Entry) {
			if e.Type == raft.EntryNormal && string(e.Data) == "x" {
				commits[id]++
			}
		}
	}
	lead := g.Host(g.Leader())
	if err := lead.Node.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	lead.Pump()
	sim.RunFor(500 * Millisecond)
	for id := range g.hosts {
		if commits[id] != 1 {
			t.Fatalf("host %d commits = %d, want 1", id, commits[id])
		}
	}
}

func TestOnStateChangeFires(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 3, 50, 100, 15*Millisecond, 4)
	leaderEvents := 0
	for _, h := range g.hosts {
		h.OnStateChange = func(st raft.State, term, leader uint64) {
			if st == raft.Leader {
				leaderEvents++
			}
		}
	}
	sim.RunFor(2 * Second)
	if leaderEvents == 0 {
		t.Fatal("no leader state-change events observed")
	}
}

// A host restarted while still inside a partition must come back with
// exactly the log it persisted: messages dropped by the partition (or in
// flight at the crash) must not be resurrected by the restart. Only after
// the partition heals may the replicated entries reach it.
func TestRestartInsidePartitionNoResurrection(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, 6)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(2*Second)) {
		t.Fatal("no leader")
	}
	sim.RunFor(200 * Millisecond)
	lead := g.Leader()
	if lead == raft.None {
		t.Fatal("leadership lost during stable period")
	}

	// Count payload commits per host; OnCommit lives on the Host, so the
	// hookup survives the restart below.
	commits := map[uint64]int{}
	for id, h := range g.hosts {
		id := id
		h.OnCommit = func(e raft.Entry) {
			if e.Type == raft.EntryNormal && len(e.Data) > 0 {
				commits[id]++
			}
		}
	}

	// Isolate one follower, then crash it inside the partition.
	var isolated uint64
	for _, id := range g.IDs() {
		if id != lead {
			isolated = id
			break
		}
	}
	g.Partition(map[uint64]bool{isolated: true})
	g.Host(isolated).Crash()
	baseIndex := g.Host(isolated).Node.LastIndex()

	// The majority side keeps committing.
	for i := 0; i < 3; i++ {
		h := g.Host(g.Leader())
		if err := h.Node.Propose([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		h.Pump()
		sim.RunFor(200 * Millisecond)
	}
	for _, id := range g.IDs() {
		if id == isolated {
			continue
		}
		if commits[id] != 3 {
			t.Fatalf("majority host %d commits = %d, want 3", id, commits[id])
		}
	}

	// Restart the host with the partition still up: nothing the partition
	// dropped may appear — no new log entries, no new commits.
	err := g.Host(isolated).Restart(raft.Config{
		ID: isolated, Peers: g.IDs(),
		ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 16,
		Rng: rand.New(rand.NewSource(600 + int64(isolated))),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(2 * Second)
	if got := commits[isolated]; got != 0 {
		t.Fatalf("partitioned host committed %d entries after restart, want 0", got)
	}
	if got := g.Host(isolated).Node.LastIndex(); got != baseIndex {
		t.Fatalf("partitioned host log grew to %d after restart, want %d", got, baseIndex)
	}

	// Heal, and the replicated entries finally arrive.
	g.LinkFilter = nil
	ok := sim.RunWhileNot(func() bool { return commits[isolated] == 3 },
		sim.Now()+Time(10*Second))
	if !ok {
		t.Fatalf("isolated host commits = %d after heal, want 3", commits[isolated])
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	sim := New()
	g := NewGroup(sim, "dup", Uniform(0), nil)
	n, err := raft.NewNode(raft.Config{
		ID: 1, Peers: []uint64{1},
		ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(n); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(n); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (Time, uint64) {
		sim := New()
		g := newGroupCluster(t, sim, 5, 100, 200, 15*Millisecond, 42)
		if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
			t.Fatal("no leader")
		}
		return sim.Now(), g.Leader()
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Fatalf("runs differ: (%v,%d) vs (%v,%d)", t1, l1, t2, l2)
	}
}

func TestTimeRendering(t *testing.T) {
	if (2 * Millisecond).Ms() != 2 {
		t.Fatal("Duration.Ms wrong")
	}
}

func BenchmarkSimulatedElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := New()
		g := NewGroup(sim, "bench", Uniform(15*Millisecond), rand.New(rand.NewSource(int64(i))))
		ids := []uint64{1, 2, 3, 4, 5}
		for _, id := range ids {
			n, err := raft.NewNode(raft.Config{
				ID: id, Peers: ids,
				ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15,
				Rng: rand.New(rand.NewSource(int64(i)*10 + int64(id))),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Add(n); err != nil {
				b.Fatal(err)
			}
		}
		if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(10*Second)) {
			b.Fatal("no leader")
		}
	}
}
