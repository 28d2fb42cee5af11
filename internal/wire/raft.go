package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/raft"
)

// Raft payload layout (inside a KindRaft frame), version 1:
//
//	type          u8      raft.MsgType
//	flags         u8      bit0 Granted, bit1 Reject, bit2 snapshot present
//	from          u64
//	to            u64
//	term          u64
//	lastLogIndex  u64
//	lastLogTerm   u64
//	prevLogIndex  u64
//	prevLogTerm   u64
//	commit        u64
//	match         u64
//	entries       u32 count, then per entry:
//	                index u64, term u64, type u8, data bytes
//	snapshot      (only if flag bit2) index u64, term u64,
//	                peers u32 count + count·u64, data bytes
//
// "bytes" is always a u32 length prefix followed by that many bytes.
// The entries, snapshot and peer-list blocks are the sub-codecs below
// (entriesSize/appendEntries/readEntries and so on); a KindRaftState
// frame (raftstate.go) is built from the same three, so a log entry or
// a snapshot has one encoding wherever it travels or rests.

const (
	raftFlagGranted  = 1 << 0
	raftFlagReject   = 1 << 1
	raftFlagSnapshot = 1 << 2

	raftFixedSize = 2 + 9*8 // type+flags then nine u64 fields
)

// raftPayloadSize returns the exact encoded payload size of m, without
// encoding it.
func raftPayloadSize(m raft.Message) int {
	n := raftFixedSize + entriesSize(m.Entries)
	if m.Snapshot != nil {
		n += snapshotSize(m.Snapshot)
	}
	return n
}

// RaftFrameSize returns the exact on-wire size of m's frame, header
// included — the number a byte counter records without encoding.
func RaftFrameSize(m raft.Message) int { return HeaderSize + raftPayloadSize(m) }

// AppendRaftFrame appends a complete frame (header + payload) for m.
func AppendRaftFrame(dst []byte, m raft.Message) []byte {
	dst = appendHeader(dst, KindRaft, raftPayloadSize(m))
	var flags byte
	if m.Granted {
		flags |= raftFlagGranted
	}
	if m.Reject {
		flags |= raftFlagReject
	}
	if m.Snapshot != nil {
		flags |= raftFlagSnapshot
	}
	dst = append(dst, byte(m.Type), flags)
	dst = appendUint64(dst, m.From)
	dst = appendUint64(dst, m.To)
	dst = appendUint64(dst, m.Term)
	dst = appendUint64(dst, m.LastLogIndex)
	dst = appendUint64(dst, m.LastLogTerm)
	dst = appendUint64(dst, m.PrevLogIndex)
	dst = appendUint64(dst, m.PrevLogTerm)
	dst = appendUint64(dst, m.Commit)
	dst = appendUint64(dst, m.Match)
	dst = appendEntries(dst, m.Entries)
	if m.Snapshot != nil {
		dst = appendSnapshot(dst, m.Snapshot)
	}
	return dst
}

// decodeRaftPayload decodes a KindRaft payload. Entry data, snapshot
// contents and peer lists are copied out of b, so the caller may
// recycle the read buffer immediately.
func decodeRaftPayload(b []byte) (raft.Message, error) {
	var m raft.Message
	if len(b) < raftFixedSize+4 {
		return m, fmt.Errorf("%w: raft payload is %d bytes", errTruncated, len(b))
	}
	m.Type = raft.MsgType(b[0])
	flags := b[1]
	if flags&^(raftFlagGranted|raftFlagReject|raftFlagSnapshot) != 0 {
		return m, fmt.Errorf("%w: unknown raft flags %#x", errBadFrame, flags)
	}
	m.Granted = flags&raftFlagGranted != 0
	m.Reject = flags&raftFlagReject != 0
	b = b[2:]
	var err error
	for _, dst := range []*uint64{
		&m.From, &m.To, &m.Term, &m.LastLogIndex, &m.LastLogTerm,
		&m.PrevLogIndex, &m.PrevLogTerm, &m.Commit, &m.Match,
	} {
		if *dst, b, err = readUint64(b); err != nil {
			return m, err
		}
	}
	if m.Entries, b, err = readEntries(b); err != nil {
		return m, err
	}
	if flags&raftFlagSnapshot != 0 {
		if m.Snapshot, b, err = readSnapshot(b); err != nil {
			return m, err
		}
	}
	if len(b) != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes after raft payload", errBadFrame, len(b))
	}
	return m, nil
}

// ---- sub-codecs shared by KindRaft and KindRaftState ----

// entryMinSize is what an entry with no data costs: index, term, type
// and the data length prefix.
const entryMinSize = 8 + 8 + 1 + 4

func entriesSize(es []raft.Entry) int {
	n := 4 + entryMinSize*len(es)
	for _, e := range es {
		n += len(e.Data)
	}
	return n
}

func appendEntries(dst []byte, es []raft.Entry) []byte {
	dst = appendUint32(dst, uint32(len(es)))
	for _, e := range es {
		dst = appendUint64(dst, e.Index)
		dst = appendUint64(dst, e.Term)
		dst = append(dst, byte(e.Type))
		dst = appendBytes(dst, e.Data)
	}
	return dst
}

// readEntries decodes an entry block (nil for an empty one). A count
// the remaining payload cannot hold is rejected before allocating.
func readEntries(b []byte) ([]raft.Entry, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*entryMinSize > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: %d entries in %d bytes", errTruncated, n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	es := make([]raft.Entry, n)
	for i := range es {
		if len(b) < entryMinSize {
			return nil, nil, errTruncated
		}
		e := &es[i]
		e.Index = binary.LittleEndian.Uint64(b)
		e.Term = binary.LittleEndian.Uint64(b[8:])
		e.Type = raft.EntryType(b[16])
		if e.Data, b, err = readBytes(b[17:]); err != nil {
			return nil, nil, err
		}
	}
	return es, b, nil
}

func peersSize(ids []uint64) int { return 4 + 8*len(ids) }

func appendPeers(dst []byte, ids []uint64) []byte {
	dst = appendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendUint64(dst, id)
	}
	return dst
}

// readPeers decodes an id list (nil for an empty one), rejecting a
// count the remaining payload cannot hold before allocating.
func readPeers(b []byte) ([]uint64, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*8 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: %d peers in %d bytes", errTruncated, n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i], b, _ = readUint64(b)
	}
	return ids, b, nil
}

func snapshotSize(s *raft.Snapshot) int {
	return 8 + 8 + peersSize(s.Peers) + 4 + len(s.Data)
}

func appendSnapshot(dst []byte, s *raft.Snapshot) []byte {
	dst = appendUint64(dst, s.Index)
	dst = appendUint64(dst, s.Term)
	dst = appendPeers(dst, s.Peers)
	return appendBytes(dst, s.Data)
}

func readSnapshot(b []byte) (*raft.Snapshot, []byte, error) {
	if len(b) < 16 {
		return nil, nil, errTruncated
	}
	s := &raft.Snapshot{Index: binary.LittleEndian.Uint64(b), Term: binary.LittleEndian.Uint64(b[8:])}
	var err error
	if s.Peers, b, err = readPeers(b[16:]); err != nil {
		return nil, nil, err
	}
	if s.Data, b, err = readBytes(b); err != nil {
		return nil, nil, err
	}
	return s, b, nil
}

// ReadRaftFrame reads one complete raft frame from r, reusing scratch
// as the payload read buffer (grown as needed, returned for the next
// call). It is the receive-loop counterpart of AppendRaftFrame.
func ReadRaftFrame(r io.Reader, scratch []byte) (raft.Message, []byte, error) {
	payload, scratch, err := readFrame(r, KindRaft, scratch)
	if err != nil {
		return raft.Message{}, scratch, err
	}
	m, err := decodeRaftPayload(payload)
	return m, scratch, err
}

// readFrame reads one header + payload from r into scratch (grown as
// needed and returned either way). A frame of any kind but want is
// rejected on its header, before its payload is read.
func readFrame(r io.Reader, want Kind, scratch []byte) (payload, grown []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, scratch, err
	}
	kind, n, err := ParseHeader(hdr[:])
	if err != nil {
		return nil, scratch, err
	}
	if kind != want {
		return nil, scratch, fmt.Errorf("%w: kind %s, want %s", errBadFrame, kind, want)
	}
	buf, err := readPayload(r, n, scratch)
	if err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// readOne reads one frame of the wanted kind from r and decodes it —
// the body of every Read…Frame that keeps no read buffer.
func readOne[T any](r io.Reader, want Kind, decode func([]byte) (T, error)) (T, error) {
	payload, _, err := readFrame(r, want, nil)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(payload)
}
