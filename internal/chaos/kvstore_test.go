package chaos

import (
	"math/rand"
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
)

func TestApplyIgnoresNoiseAndReplays(t *testing.T) {
	s := newKVStore()
	s.Apply(raft.Entry{Index: 1, Type: raft.EntryNormal, Data: encodeSet("k", "v1")})
	// Replay of an old index must not regress state.
	s.Apply(raft.Entry{Index: 1, Type: raft.EntryNormal, Data: encodeSet("k", "stale")})
	if v := s.data["k"]; v != "v1" {
		t.Fatalf("replay applied: %q", v)
	}
	// Conf changes, no-ops and garbage are skipped.
	s.Apply(raft.Entry{Index: 2, Type: raft.EntryConfChange, Data: []byte("{}")})
	s.Apply(raft.Entry{Index: 3, Type: raft.EntryNoop})
	s.Apply(raft.Entry{Index: 4, Type: raft.EntryNormal, Data: []byte("not json")})
	want := newKVStore()
	want.Apply(raft.Entry{Index: 1, Type: raft.EntryNormal, Data: encodeSet("k", "v1")})
	if !kvEqual(s, want) {
		t.Fatal("noise mutated the store")
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := newKVStore()
	a.Apply(raft.Entry{Index: 1, Type: raft.EntryNormal, Data: encodeSet("x", "1")})
	a.Apply(raft.Entry{Index: 2, Type: raft.EntryNormal, Data: encodeSet("y", "2")})
	b := newKVStore()
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !kvEqual(a, b) {
		t.Fatal("restored replica differs")
	}
	// The applied index travels with the snapshot: an entry the
	// snapshot already covers is a replay.
	b.Apply(raft.Entry{Index: 2, Type: raft.EntryNormal, Data: encodeSet("y", "stale")})
	if v := b.data["y"]; v != "2" {
		t.Fatalf("restore lost the applied index: y = %q", v)
	}
	if err := b.Restore([]byte("garbage")); err == nil {
		t.Fatal("want restore error")
	}
}

// Full replication: three stores driven by a simulated raft group
// converge to identical state, including a replica that catches up
// purely via InstallSnapshot.
func TestReplicatedStoreConverges(t *testing.T) {
	sim := simnet.New()
	g := simnet.NewGroup(sim, "kv", simnet.Uniform(5*simnet.Millisecond), rand.New(rand.NewSource(1)))
	ids := []uint64{1, 2, 3}
	stores := map[uint64]*kvStore{}
	for _, id := range ids {
		id := id
		st := newKVStore()
		stores[id] = st
		node, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids,
			ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15,
			Rng:               rand.New(rand.NewSource(int64(id))),
			SnapshotThreshold: 8,
			SnapshotState:     st.Snapshot,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Add(node)
		if err != nil {
			t.Fatal(err)
		}
		h.OnCommit = st.Apply
		h.OnSnapshot = func(s *raft.Snapshot) {
			if err := st.Restore(s.Data); err != nil {
				t.Errorf("restore: %v", err)
			}
		}
	}
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, simnet.Time(10*simnet.Second)) {
		t.Fatal("no leader")
	}
	// Crash a follower so it must later catch up (possibly by snapshot,
	// given the low compaction threshold).
	var lag uint64
	for _, id := range ids {
		if id != g.Leader() {
			lag = id
			break
		}
	}
	g.Host(lag).Crash()

	lead := g.Host(g.Leader())
	for i := 0; i < 30; i++ {
		key := string(rune('a' + i%7))
		if err := lead.Node.Propose(encodeSet(key, key+key)); err != nil {
			t.Fatal(err)
		}
		lead.Pump()
		sim.RunFor(30 * simnet.Millisecond)
	}
	sim.RunFor(500 * simnet.Millisecond)

	// Restart the lagging replica from its (stale) persisted state; the
	// leader has compacted far past it, forcing an InstallSnapshot. The
	// host's hooks survive Restart and captured the store.
	if err := g.Host(lag).Restart(raft.Config{
		ID: lag, ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15,
		Rng:               rand.New(rand.NewSource(99)),
		SnapshotThreshold: 8,
		SnapshotState:     stores[lag].Snapshot,
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(3 * simnet.Second)

	leaderStore := stores[g.Leader()]
	for _, id := range ids {
		if !kvEqual(stores[id], leaderStore) {
			t.Fatalf("replica %d diverged: %v vs %v", id, stores[id].data, leaderStore.data)
		}
	}
	if len(leaderStore.data) != 7 {
		t.Fatalf("keys = %v", leaderStore.data)
	}
	if v := leaderStore.data["c"]; v != "cc" {
		t.Fatalf("c = %q", v)
	}
}
