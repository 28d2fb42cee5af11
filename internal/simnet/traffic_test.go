package simnet

import (
	"testing"

	"repro/internal/raft"
	"repro/internal/wire"
)

// trafficRun drives one 5-node cluster with loss and jitter through an
// election plus a stable period and returns the offered-traffic counters
// and what the hosts saw delivered.
func trafficRun(t *testing.T, seed int64) (om, ob, dm, db int64) {
	t.Helper()
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, seed)
	g.LossRate = 0.1
	g.Jitter = 2 * Millisecond
	for _, id := range g.IDs() {
		g.Host(id).OnMessage = func(m raft.Message) {
			dm++
			db += int64(wire.RaftFrameSize(m))
		}
	}
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no leader within 5 virtual seconds")
	}
	sim.RunFor(500 * Millisecond)
	om, ob = g.OfferedTraffic()
	return om, ob, dm, db
}

// TestGroupTrafficDeterministic: byte accounting is part of the
// simulator's deterministic surface — two runs with the same seed must
// report identical traffic down to the byte, and the counts must be
// plausible (heartbeats flowing, loss actually dropping some frames).
func TestGroupTrafficDeterministic(t *testing.T) {
	om1, ob1, dm1, db1 := trafficRun(t, 7)
	om2, ob2, dm2, db2 := trafficRun(t, 7)
	if om1 != om2 || ob1 != ob2 || dm1 != dm2 || db1 != db2 {
		t.Fatalf("same seed, different traffic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			om1, ob1, dm1, db1, om2, ob2, dm2, db2)
	}
	if om1 == 0 || ob1 == 0 {
		t.Fatal("no traffic recorded for a live cluster")
	}
	if dm1 == 0 {
		t.Fatal("nothing was delivered across a 500ms window")
	}
	if dm1 >= om1 || db1 >= ob1 {
		t.Fatalf("10%% loss dropped nothing: delivered %d msgs/%d B of %d msgs/%d B offered", dm1, db1, om1, ob1)
	}
	// A different seed must still produce traffic (and, with jittered
	// elections, almost surely a different amount — but that is not a
	// contract worth flaking on).
	om3, ob3, _, _ := trafficRun(t, 8)
	if om3 == 0 || ob3 == 0 {
		t.Fatal("no traffic on second seed")
	}
}

// TestGroupTrafficMatchesFrameSizes cross-checks the accounting unit on
// a lossless two-node group: offered bytes must equal the sum of
// wire.RaftFrameSize over every delivered message — the exact bytes
// RaftTCP would write per message. Zero latency keeps send and delivery
// at the same virtual timestamp, so nothing is in flight when the run
// stops and the two tallies must agree exactly.
func TestGroupTrafficMatchesFrameSizes(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 2, 50, 100, 0, 3)
	var want int64
	var seen int64
	for _, id := range g.IDs() {
		g.Host(id).OnMessage = func(m raft.Message) {
			want += int64(wire.RaftFrameSize(m))
			seen++
		}
	}
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no leader")
	}
	sim.RunFor(300 * Millisecond)
	om, ob := g.OfferedTraffic()
	if om != seen {
		t.Fatalf("offered %d messages, observed %d deliveries", om, seen)
	}
	if ob != want {
		t.Fatalf("offered %d bytes, Σ RaftFrameSize = %d", ob, want)
	}
}
