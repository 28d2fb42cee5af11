package raft

import (
	"math/rand"
	"testing"
)

func TestStatusSnapshot(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	st := l.Status()
	if st.State != Leader || st.ID != l.ID() || st.Leader != l.ID() {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Members) != 3 {
		t.Fatalf("members = %v", st.Members)
	}
}

// FuzzStepNeverPanics drives a node with arbitrary messages: whatever a
// byzantine or buggy peer sends, Step must return (possibly an error)
// without panicking and without corrupting basic invariants.
func FuzzStepNeverPanics(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(5), uint64(2), uint64(1), false, []byte("x"))
	f.Add(uint8(2), uint64(2), uint64(0), uint64(99), uint64(98), true, []byte{})
	f.Add(uint8(3), uint64(3), uint64(7), uint64(1), uint64(1), false, []byte("entry"))
	f.Add(uint8(4), uint64(9), uint64(3), uint64(0), uint64(0), false, []byte("snap"))
	f.Fuzz(func(t *testing.T, typ uint8, from, term, idx, idx2 uint64, flag bool, data []byte) {
		n, err := NewNode(Config{
			ID: 1, Peers: []uint64{1, 2, 3},
			ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
			Rng: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		msg := Message{
			Type:         MsgType(typ % 6), // includes one invalid type
			From:         from,
			To:           1,
			Term:         term,
			LastLogIndex: idx,
			LastLogTerm:  idx2,
			PrevLogIndex: idx,
			PrevLogTerm:  idx2,
			Commit:       idx2,
			Granted:      flag,
			Reject:       flag,
			Match:        idx,
			Entries:      []Entry{{Index: idx + 1, Term: term, Data: data}},
		}
		if MsgType(typ%6) == MsgSnapshot {
			msg.Snapshot = &Snapshot{Index: idx, Term: idx2, Peers: []uint64{1, 2, 3}, Data: data}
		}
		_ = n.Step(msg) // must not panic
		// Basic invariants survive arbitrary input.
		if n.CommitIndex() > n.lastIndex() {
			t.Fatalf("commit %d beyond last index %d", n.CommitIndex(), n.lastIndex())
		}
		// Ready never panics either.
		n.Ready()
		n.Tick()
		n.Ready()
	})
}

// FuzzConfChangeDecode: arbitrary bytes must never panic the decoder.
func FuzzConfChangeDecode(f *testing.F) {
	f.Add([]byte(`{"add":true,"node_id":3}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cc, err := DecodeConfChange(data)
		if err == nil && cc.NodeID == 0 && cc.Add {
			// Decoded a conf change with a zero ID — allowed at the codec
			// level; appliers validate separately.
			_ = cc
		}
	})
}
