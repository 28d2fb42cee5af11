package raft

import (
	"fmt"
	"slices"
)

// HardState is the durable part of a node's state: what Raft requires to
// be persisted before answering RPCs (currentTerm, votedFor) plus the
// commit index as an optimization for restart. Together with the log it
// lets a crashed server rejoin the cluster at any time (Sec. III-C of
// the reproduced paper).
type HardState struct {
	Term     uint64
	VotedFor uint64
	Commit   uint64
}

// PersistentState is everything needed to reconstruct a node. One that
// Persist returned is an immutable image of memory the node goes on
// reading: a holder encodes it, stores it or hands it to Restore (which
// copies what it keeps), and writes to nothing it reaches. Appending to
// its Log or Peers is safe: both are full to capacity, so append copies.
type PersistentState struct {
	Hard HardState
	// Snapshot is the last compaction point (nil when the log was never
	// compacted); Log holds the entries after it.
	Snapshot *Snapshot
	Log      []Entry
	Peers    []uint64 // configuration as of the applied log
}

// Persist captures the node's durable state. Loop.Pump calls it after
// draining Ready and hands the image to its Store (the daemon's syncs it
// to disk; the simulator's keeps it in memory, which is equivalent under
// a crash model that loses nothing already persisted).
//
// The capture costs O(1) whatever the log's length, because it shares
// instead of copying, and it still never changes afterwards, because the
// node never writes to what it has shared: Log is a view of the node's
// own array, clipped to its length, and the node only ever fills slots
// past that length (conflict truncation, Compact and snapshot install
// all move the log to a fresh array); Peers is the sorted member slice,
// which a configuration change replaces rather than edits; Snapshot is
// the node's own, which Compact and snapshot install likewise replace.
func (n *Node) Persist() PersistentState {
	return PersistentState{
		Hard:     HardState{Term: n.term, VotedFor: n.votedFor, Commit: n.commitIndex},
		Snapshot: n.snapshot,
		Log:      slices.Clip(n.log),
		Peers:    n.members,
	}
}

// Restore creates a node from a persisted state, as a follower with no
// known leader — the state a rejoining server restarts into. The restored
// node keeps its ID and timing configuration from cfg; cfg.Peers is
// ignored in favour of the persisted configuration.
func Restore(cfg Config, ps PersistentState) (*Node, error) {
	cfg2 := cfg
	cfg2.Peers = ps.Peers
	n, err := NewNode(cfg2)
	if err != nil {
		return nil, err
	}
	var snapIndex uint64
	if ps.Snapshot != nil {
		snapIndex = ps.Snapshot.Index
		n.snapIndex, n.snapTerm = ps.Snapshot.Index, ps.Snapshot.Term
		s := *ps.Snapshot
		s.Peers = append([]uint64(nil), ps.Snapshot.Peers...)
		s.Data = append([]byte(nil), ps.Snapshot.Data...)
		n.snapshot = &s
	}
	last := snapIndex + uint64(len(ps.Log))
	if ps.Hard.Commit > last || ps.Hard.Commit < snapIndex {
		return nil, fmt.Errorf("raft: persisted commit %d outside [%d,%d]", ps.Hard.Commit, snapIndex, last)
	}
	n.term = ps.Hard.Term
	n.votedFor = ps.Hard.VotedFor
	n.commitIndex = ps.Hard.Commit
	n.log = make([]Entry, len(ps.Log))
	copy(n.log, ps.Log)
	// Committed entries will be re-applied through Ready; conf changes
	// in them are already reflected in ps.Peers, so skip re-application
	// by marking them applied.
	n.applied = ps.Hard.Commit
	return n, nil
}
