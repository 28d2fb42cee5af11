package raft

import (
	"math/rand"
	"testing"
)

func TestCompactTruncatesLog(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	for i := 0; i < 5; i++ {
		if err := l.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.run(10)
	before := l.lastIndex()
	if err := l.Compact(l.CommitIndex(), []byte("state")); err != nil {
		t.Fatal(err)
	}
	if l.SnapshotIndex() != l.CommitIndex() {
		t.Fatalf("snapshot index = %d, want %d", l.SnapshotIndex(), l.CommitIndex())
	}
	if l.lastIndex() != before {
		t.Fatal("compaction must not change lastIndex")
	}
	if len(l.Log()) != int(before-l.SnapshotIndex()) {
		t.Fatalf("retained %d entries, want %d", len(l.Log()), before-l.SnapshotIndex())
	}
	// Cluster keeps working after compaction.
	if err := l.Propose([]byte("after")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	if c.leader() == nil {
		t.Fatal("no leader after compaction")
	}
}

func TestCompactValidation(t *testing.T) {
	c := newCluster(t, 1)
	l := c.waitLeader(50)
	if err := l.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.run(5)
	if err := l.Compact(l.CommitIndex()+5, nil); err == nil {
		t.Fatal("want error compacting beyond applied")
	}
	if err := l.Compact(l.CommitIndex(), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(l.SnapshotIndex(), nil); err == nil {
		t.Fatal("want error re-compacting the same index")
	}
}

func TestSlowFollowerReceivesSnapshot(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	// Partition one follower.
	var lag uint64
	for id := range c.nodes {
		if id != l.ID() {
			lag = id
			break
		}
	}
	c.down[lag] = true
	for i := 0; i < 6; i++ {
		if err := c.leader().Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		c.run(5)
	}
	// Compact past everything the lagging follower has, then commit a
	// tail the snapshot does not hold.
	lead := c.leader()
	if err := lead.Compact(lead.CommitIndex(), []byte("compacted-state")); err != nil {
		t.Fatal(err)
	}
	if err := lead.Propose([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	c.run(1)
	// Heal the partition: the follower catches up via InstallSnapshot.
	// Its ack sends nothing, so the tail follows at the next heartbeat:
	// two heartbeats after the heal the follower holds the leader's log.
	c.down[lag] = false
	follower := c.nodes[lag]
	const heartbeatTick = 2 // newClusterCfg's
	c.run(2 * heartbeatTick)
	if follower.lastIndex() != lead.lastIndex() {
		t.Fatalf("follower at %d, leader at %d, two heartbeats after the heal",
			follower.lastIndex(), lead.lastIndex())
	}
	c.run(60)
	if follower.CommitIndex() < lead.SnapshotIndex() {
		t.Fatalf("follower commit %d below snapshot %d", follower.CommitIndex(), lead.SnapshotIndex())
	}
	if follower.SnapshotIndex() != lead.SnapshotIndex() {
		t.Fatalf("follower snapshot %d != leader %d", follower.SnapshotIndex(), lead.SnapshotIndex())
	}
	// And it continues to replicate normally afterwards.
	if err := c.leader().Propose([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	found := false
	for _, e := range follower.Log() {
		if string(e.Data) == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("follower did not replicate entries after snapshot install")
	}
}

func TestInstalledSnapshotDeliveredViaReady(t *testing.T) {
	// Directly feed a snapshot to a fresh follower and observe Ready.
	n, err := NewNode(Config{
		ID: 2, Peers: []uint64{1, 2, 3},
		ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
		Rng: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Index: 7, Term: 3, Peers: []uint64{1, 2, 3, 4}, Data: []byte("app-state")}
	if err := n.Step(Message{Type: MsgSnapshot, From: 1, To: 2, Term: 3, Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	rd := n.Ready()
	if rd.InstalledSnapshot == nil || string(rd.InstalledSnapshot.Data) != "app-state" {
		t.Fatalf("snapshot not delivered: %+v", rd.InstalledSnapshot)
	}
	if n.CommitIndex() != 7 || n.SnapshotIndex() != 7 {
		t.Fatalf("commit=%d snap=%d, want 7", n.CommitIndex(), n.SnapshotIndex())
	}
	// Membership came from the snapshot.
	if !n.IsMember(4) {
		t.Fatal("snapshot membership not applied")
	}
	// A stale snapshot is ignored.
	if err := n.Step(Message{Type: MsgSnapshot, From: 1, To: 2, Term: 3, Snapshot: &Snapshot{Index: 3, Term: 2}}); err != nil {
		t.Fatal(err)
	}
	if n.SnapshotIndex() != 7 {
		t.Fatal("stale snapshot overwrote state")
	}
	// A nil snapshot is rejected, not crashed on.
	if err := n.Step(Message{Type: MsgSnapshot, From: 1, To: 2, Term: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoCompaction(t *testing.T) {
	ids := []uint64{1}
	n, err := NewNode(Config{
		ID: 1, Peers: ids,
		ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
		Rng:               rand.New(rand.NewSource(1)),
		SnapshotThreshold: 4,
		SnapshotState:     func() []byte { return []byte("auto") },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Campaign()
	n.Ready()
	for i := 0; i < 10; i++ {
		if err := n.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		n.Ready()
	}
	if n.SnapshotIndex() == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	if got := len(n.Log()); got > 5 {
		t.Fatalf("log retains %d entries despite threshold 4", got)
	}
	ps := n.Persist()
	if ps.Snapshot == nil || string(ps.Snapshot.Data) != "auto" {
		t.Fatal("snapshot state not captured")
	}
	// Restore round-trips the snapshot.
	restored, err := Restore(Config{
		ID: 1, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
	}, ps)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SnapshotIndex() != n.SnapshotIndex() {
		t.Fatal("restored snapshot index mismatch")
	}
	if restored.CommitIndex() != n.CommitIndex() {
		t.Fatal("restored commit mismatch")
	}
}

func TestSnapshotWithPersistRestoreAndCatchUp(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	for i := 0; i < 6; i++ {
		if err := l.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.run(10)
	if err := l.Compact(l.CommitIndex(), []byte("s")); err != nil {
		t.Fatal(err)
	}
	ps := l.Persist()
	if ps.Snapshot == nil {
		t.Fatal("snapshot missing from persisted state")
	}
	// Corrupt commit below the snapshot: restore must refuse.
	bad := ps
	bad.Hard.Commit = ps.Snapshot.Index - 1
	if _, err := Restore(Config{ID: 1, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2}, bad); err == nil {
		t.Fatal("want error for commit below snapshot")
	}
}
