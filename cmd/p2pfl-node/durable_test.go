package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/raft"
	"repro/internal/simnet"
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
	if err := f.Save(ps); err != nil {
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
	if err := f.Save(ps); err != nil {
		t.Fatal(err)
	}
	// Overwriting is safe.
	ps.Hard.Term++
	if err := f.Save(ps); err != nil {
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
	if frame := wire.AppendRaftStateFrame(nil, ps); len(b) != len(frame) {
		t.Fatalf("state file is %d bytes, frame is %d", len(b), len(frame))
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
		want    string // the codec's verdict, when the case names one
	}{
		"gob":       {gobHead, "wire: bad magic"},
		"empty":     {nil, ""},
		"truncated": {frame[:len(frame)-1], ""},
		"wrongkind": {wire.AppendRaftFrame(nil, raft.Message{Type: raft.MsgAppend}), "wire: malformed frame"},
	} {
		f := stateFile(filepath.Join(t.TempDir(), name))
		if err := os.WriteFile(string(f), tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := f.open(testConfig(1, 1, 2, 3))
		if err == nil || n != nil {
			t.Fatalf("%s: open accepted a corrupt state file", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// TestLogRecovery: a three-node group under the virtual clock commits
// 100 entries, each node a simnet host whose loop — the loop the daemon
// runs — saves to its own state file before it sends. Dropping the nodes
// and reopening the files yields the same term, vote, commit index and
// log, and a host restarted from its file rejoins. Then one host's state
// directory becomes unwritable: it goes down before a single message of
// that Ready is sent. With no -state everything is sent.
func TestLogRecovery(t *testing.T) {
	dir := t.TempDir()
	ids := []uint64{1, 2, 3}
	files := map[uint64]stateFile{}
	sim := simnet.New()
	g := simnet.NewGroup(sim, "recovery", simnet.Uniform(simnet.Millisecond), rand.New(rand.NewSource(1)))
	for _, id := range ids {
		files[id] = stateFile(filepath.Join(dir, fmt.Sprintf("n%d.state", id)))
		n, err := files[id].open(testConfig(id, ids...))
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Add(n)
		if err != nil {
			t.Fatal(err)
		}
		h.Store = files[id]
	}
	led := func() bool { return g.Leader() != raft.None }
	if !sim.RunWhileNot(led, simnet.Time(simnet.Second)) {
		t.Fatal("no leader")
	}
	for i := 0; i < 100; i++ {
		if !sim.RunWhileNot(led, sim.Now()+simnet.Time(simnet.Second)) {
			t.Fatal("leader lost")
		}
		if err := g.Host(g.Leader()).Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(3 * simnet.Millisecond)
	}
	// A few heartbeat rounds carry the final commit index to followers.
	sim.RunFor(20 * simnet.Millisecond)
	if got := g.Host(g.Leader()).Node.CommitIndex(); got < 100 {
		t.Fatalf("leader committed %d entries, want >= 100", got)
	}

	images := map[uint64]raft.PersistentState{}
	for _, id := range ids {
		h := g.Host(id)
		want := h.Node.Persist()
		h.Crash() // the process is gone; only the file is left
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
		images[id] = got
	}
	// What the files hold is enough to go on: the three restart from it,
	// elect a leader and commit one entry more.
	for _, id := range ids {
		if err := g.Host(id).RestartFrom(testConfig(id), images[id]); err != nil {
			t.Fatalf("node %d: restart from its file: %v", id, err)
		}
	}
	if !sim.RunWhileNot(led, sim.Now()+simnet.Time(simnet.Second)) {
		t.Fatal("no leader after the restart")
	}
	if err := g.Host(g.Leader()).Propose([]byte("after")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(20 * simnet.Millisecond)
	for _, id := range ids {
		if log := g.Host(id).Node.Log(); string(log[len(log)-1].Data) != "after" {
			t.Fatalf("node %d did not take the entry proposed after the restart", id)
		}
	}

	// Persist-before-send: with the state path under a regular file, no
	// temp file can be created. Alone in the group, whatever node 1 next
	// has to send — a heartbeat if it leads, else the vote requests of
	// the election it starts — must not leave it.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	g.Host(2).Crash()
	g.Host(3).Crash()
	sim.RunFor(5 * simnet.Millisecond) // what 2 and 3 had in flight lands
	h := g.Host(1)
	h.Store = stateFile(filepath.Join(blocker, "raft.state"))
	before, _ := g.OfferedTraffic()
	if !sim.RunWhileNot(h.Down, sim.Now()+simnet.Time(simnet.Second)) {
		t.Fatal("node 1 stayed up without a writable state directory")
	}
	if sent, _ := g.OfferedTraffic(); sent != before {
		t.Fatalf("%d messages sent after the persist failed", sent-before)
	}
	// Durability off: nothing to persist, everything is sent.
	h.Store = stateFile("")
	if err := h.RestartFrom(testConfig(1), images[1]); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(100 * simnet.Millisecond)
	if sent, _ := g.OfferedTraffic(); sent == before || h.Down() {
		t.Fatalf("no -state: %d messages sent, down %v", sent-before, h.Down())
	}
}
