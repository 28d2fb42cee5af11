package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/raft"
	"repro/internal/wire"
)

func testConfig(id uint64, peers ...uint64) raft.Config {
	return raft.Config{ID: id, Peers: peers, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2}
}

// samplePersistentState drives a single-node group through an
// election, a commit, a compaction and one more commit, so the state
// has a snapshot, a log tail and a non-zero hard state.
func samplePersistentState(t *testing.T) raft.PersistentState {
	t.Helper()
	n, err := raft.NewNode(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25 && n.State() != raft.Leader; i++ {
		n.Tick()
	}
	if err := n.Propose([]byte("saved")); err != nil {
		t.Fatal(err)
	}
	n.Ready()
	if err := n.Compact(n.CommitIndex(), []byte("app")); err != nil {
		t.Fatal(err)
	}
	if err := n.Propose([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	n.Ready()
	return n.Persist()
}

// reopen restores a node from f and returns what it would persist.
func reopen(t *testing.T, f stateFile) raft.PersistentState {
	t.Helper()
	n, err := f.open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return n.Persist()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ps := samplePersistentState(t)
	f := stateFile(filepath.Join(t.TempDir(), "raft.state"))
	if err := f.save(ps); err != nil {
		t.Fatal(err)
	}
	// The saved state restores into a node holding the same state.
	got := reopen(t, f)
	if got.Hard != ps.Hard {
		t.Fatalf("hard state: %+v != %+v", got.Hard, ps.Hard)
	}
	if !reflect.DeepEqual(got.Log, ps.Log) || !reflect.DeepEqual(got.Peers, ps.Peers) {
		t.Fatalf("log/peers mismatch: %+v != %+v", got, ps)
	}
	if got.Snapshot == nil || got.Snapshot.Index != ps.Snapshot.Index || string(got.Snapshot.Data) != "app" {
		t.Fatalf("snapshot mismatch: %+v", got.Snapshot)
	}
}

func TestSaveFileAtomicAndReloadable(t *testing.T) {
	ps := samplePersistentState(t)
	f := stateFile(filepath.Join(t.TempDir(), "raft.state"))
	if err := f.save(ps); err != nil {
		t.Fatal(err)
	}
	// Overwriting is safe.
	ps.Hard.Term++
	if err := f.save(ps); err != nil {
		t.Fatal(err)
	}
	if got := reopen(t, f); got.Hard.Term != ps.Hard.Term {
		t.Fatal("overwrite not visible")
	}
	// The file is exactly one raft-state frame; no temp files are left.
	b, err := os.ReadFile(string(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != wire.RaftStateFrameSize(ps) {
		t.Fatalf("state file is %d bytes, frame is %d", len(b), wire.RaftStateFrameSize(ps))
	}
	entries, err := os.ReadDir(filepath.Dir(string(f)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

// A missing file is a first start: open starts a fresh node, with or
// without a -state path.
func TestLoadStateFileMissing(t *testing.T) {
	for _, f := range []stateFile{stateFile(filepath.Join(t.TempDir(), "nope")), ""} {
		n, err := f.open(testConfig(1, 1, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		if n.Term() != 0 || n.CommitIndex() != 0 {
			t.Fatalf("fresh node has term %d commit %d", n.Term(), n.CommitIndex())
		}
	}
}

// A file that exists but is not a raft-state frame is fatal to open —
// never a silent fresh start. The file a pre-wire build left behind (a
// gob stream) is the named case: bad magic.
func TestLoadStateCorrupt(t *testing.T) {
	gobHead := []byte("\x48\x7f\x03\x01\x01\x0fPersistentState\x01\xff\x80\x00\x01\x04\x01\x04Hard")
	frame := wire.AppendRaftStateFrame(nil, samplePersistentState(t))
	for name, tc := range map[string]struct {
		content []byte
		want    error
	}{
		"gob":       {gobHead, wire.ErrBadMagic},
		"empty":     {nil, nil},
		"truncated": {frame[:len(frame)-1], nil},
		"wrongkind": {wire.AppendRaftFrame(nil, raft.Message{Type: raft.MsgAppend}), wire.ErrBadFrame},
	} {
		f := stateFile(filepath.Join(t.TempDir(), name))
		if err := os.WriteFile(string(f), tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := f.open(testConfig(1, 1, 2, 3))
		if err == nil || n != nil {
			t.Fatalf("%s: open accepted a corrupt state file", name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestLogRecovery: a three-node group commits 100 entries with every
// Ready going through deliver — persist, then send — each node on its
// own state file. Dropping the nodes and reopening the files yields the
// same term, vote, commit index and log. Then the state directory
// becomes unwritable: deliver must fail before a single message of
// that Ready is sent.
func TestLogRecovery(t *testing.T) {
	dir := t.TempDir()
	ids := []uint64{1, 2, 3}
	files := map[uint64]stateFile{}
	nodes := map[uint64]*raft.Node{}
	inbox := map[uint64][]raft.Message{}
	for _, id := range ids {
		files[id] = stateFile(filepath.Join(dir, fmt.Sprintf("n%d.state", id)))
		n, err := files[id].open(testConfig(id, ids...))
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	// pump drains every node's Ready through deliver until no message
	// is in flight.
	pump := func() {
		for busy := true; busy; {
			busy = false
			for _, id := range ids {
				for _, m := range inbox[id] {
					_ = nodes[id].Step(m)
				}
				inbox[id] = nil
				rd := nodes[id].Ready()
				busy = busy || len(rd.Messages) > 0
				if err := files[id].deliver(nodes[id], rd, func(m raft.Message) error {
					inbox[m.To] = append(inbox[m.To], m)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	leader := func() *raft.Node {
		for _, id := range ids {
			if nodes[id].State() == raft.Leader {
				return nodes[id]
			}
		}
		return nil
	}
	for i := 0; i < 200 && leader() == nil; i++ {
		for _, id := range ids {
			nodes[id].Tick()
		}
		pump()
	}
	l := leader()
	if l == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 100; i++ {
		if err := l.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		pump()
	}
	// One heartbeat round carries the final commit index to followers.
	for i := 0; i < 4; i++ {
		for _, id := range ids {
			nodes[id].Tick()
		}
		pump()
	}
	if l.CommitIndex() < 100 {
		t.Fatalf("leader committed %d entries, want >= 100", l.CommitIndex())
	}

	for _, id := range ids {
		want := nodes[id].Persist()
		nodes[id] = nil // the process is gone; only the file is left
		re, err := files[id].open(testConfig(id))
		if err != nil {
			t.Fatalf("node %d: reopen: %v", id, err)
		}
		got := re.Persist()
		if got.Hard != want.Hard {
			t.Fatalf("node %d: hard state %+v, want %+v", id, got.Hard, want.Hard)
		}
		if got.Hard.Commit < 100 {
			t.Fatalf("node %d: recovered commit index %d, want >= 100", id, got.Hard.Commit)
		}
		if !reflect.DeepEqual(got.Log, want.Log) || !reflect.DeepEqual(got.Peers, want.Peers) {
			t.Fatalf("node %d: recovered log/peers differ", id)
		}
		nodes[id] = re
	}

	// Persist-before-send: with the state path under a regular file, no
	// temp file can be created, and the vote requests of the election
	// this node starts must not leave it.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := stateFile(filepath.Join(blocker, "raft.state"))
	n := nodes[1]
	var rd raft.Ready
	for i := 0; i < 50 && len(rd.Messages) == 0; i++ {
		n.Tick()
		rd = n.Ready()
	}
	if len(rd.Messages) == 0 {
		t.Fatal("node produced nothing to send")
	}
	sent := 0
	err := bad.deliver(n, rd, func(raft.Message) error { sent++; return nil })
	if err == nil {
		t.Fatal("deliver succeeded without a writable state directory")
	}
	if sent != 0 {
		t.Fatalf("%d messages sent after the persist failed", sent)
	}
	// Durability off: nothing to persist, everything is sent.
	if err := stateFile("").deliver(n, rd, func(raft.Message) error { sent++; return nil }); err != nil || sent != len(rd.Messages) {
		t.Fatalf("no -state: err %v, sent %d of %d", err, sent, len(rd.Messages))
	}
}
