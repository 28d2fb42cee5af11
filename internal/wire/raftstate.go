package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/raft"
)

// Raft-state payload layout (inside a KindRaftState frame), version 1 —
// one raft.PersistentState, the durable form of a raft node: what the
// daemon stores under -state and what a graceful handoff ships to the
// successor process.
//
//	flags     u8      bit0 snapshot present
//	term      u64     HardState.Term
//	votedFor  u64     HardState.VotedFor
//	commit    u64     HardState.Commit
//	peers     u32 count + count·u64
//	entries   as in a KindRaft payload (raft.go)
//	snapshot  (only if flag bit0) as in a KindRaft payload

const (
	raftStateFlagSnapshot = 1 << 0

	raftStateFixedSize = 1 + 3*8 // flags then the hard state
)

// RaftStateFrameSize returns the exact frame size of ps, header
// included, without encoding it.
func RaftStateFrameSize(ps raft.PersistentState) int {
	n := HeaderSize + raftStateFixedSize + peersSize(ps.Peers) + entriesSize(ps.Log)
	if ps.Snapshot != nil {
		n += snapshotSize(ps.Snapshot)
	}
	return n
}

// AppendRaftStateFrame appends a complete frame (header + payload) for
// ps.
func AppendRaftStateFrame(dst []byte, ps raft.PersistentState) []byte {
	size := RaftStateFrameSize(ps)
	dst = AppendHeader(slices.Grow(dst, size), KindRaftState, size-HeaderSize)
	var flags byte
	if ps.Snapshot != nil {
		flags |= raftStateFlagSnapshot
	}
	dst = append(dst, flags)
	dst = appendUint64(dst, ps.Hard.Term)
	dst = appendUint64(dst, ps.Hard.VotedFor)
	dst = appendUint64(dst, ps.Hard.Commit)
	dst = appendPeers(dst, ps.Peers)
	dst = appendEntries(dst, ps.Log)
	if ps.Snapshot != nil {
		dst = appendSnapshot(dst, ps.Snapshot)
	}
	return dst
}

// DecodeRaftStatePayload decodes a KindRaftState payload, copying all
// contents out of b. Empty lists and byte strings decode as nil.
func DecodeRaftStatePayload(b []byte) (raft.PersistentState, error) {
	var ps raft.PersistentState
	if len(b) < raftStateFixedSize {
		return ps, fmt.Errorf("%w: raft state payload is %d bytes", ErrTruncated, len(b))
	}
	flags := b[0]
	if flags&^raftStateFlagSnapshot != 0 {
		return ps, fmt.Errorf("%w: unknown raft state flags %#x", ErrBadFrame, flags)
	}
	ps.Hard.Term = binary.LittleEndian.Uint64(b[1:])
	ps.Hard.VotedFor = binary.LittleEndian.Uint64(b[9:])
	ps.Hard.Commit = binary.LittleEndian.Uint64(b[17:])
	var err error
	if ps.Peers, b, err = readPeers(b[raftStateFixedSize:]); err != nil {
		return ps, err
	}
	if ps.Log, b, err = readEntries(b); err != nil {
		return ps, err
	}
	if flags&raftStateFlagSnapshot != 0 {
		if ps.Snapshot, b, err = readSnapshot(b); err != nil {
			return ps, err
		}
	}
	if len(b) != 0 {
		return ps, fmt.Errorf("%w: %d trailing bytes after raft state payload", ErrBadFrame, len(b))
	}
	return ps, nil
}

// ReadRaftStateFrame reads one complete raft-state frame from r. Input
// that is not a wire frame at all (an empty or foreign file) fails with
// ErrBadMagic or an io error, never with a partial state.
func ReadRaftStateFrame(r io.Reader) (raft.PersistentState, error) {
	return readOne(r, KindRaftState, DecodeRaftStatePayload)
}
