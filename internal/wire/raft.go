package wire

import (
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

const (
	raftFlagGranted  = 1 << 0
	raftFlagReject   = 1 << 1
	raftFlagSnapshot = 1 << 2

	raftFixedSize = 2 + 9*8 // type+flags then nine u64 fields
)

// RaftPayloadSize returns the exact encoded payload size of m, without
// encoding it.
func RaftPayloadSize(m raft.Message) int {
	n := raftFixedSize + 4
	for _, e := range m.Entries {
		n += 8 + 8 + 1 + 4 + len(e.Data)
	}
	if m.Snapshot != nil {
		n += 8 + 8 + 4 + 8*len(m.Snapshot.Peers) + 4 + len(m.Snapshot.Data)
	}
	return n
}

// RaftFrameSize returns the exact on-wire size of m's frame, header
// included — the number a byte counter records without encoding.
func RaftFrameSize(m raft.Message) int { return HeaderSize + RaftPayloadSize(m) }

// AppendRaftFrame appends a complete frame (header + payload) for m.
func AppendRaftFrame(dst []byte, m raft.Message) []byte {
	dst = AppendHeader(dst, KindRaft, RaftPayloadSize(m))
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
	dst = appendUint32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = appendUint64(dst, e.Index)
		dst = appendUint64(dst, e.Term)
		dst = append(dst, byte(e.Type))
		dst = appendBytes(dst, e.Data)
	}
	if m.Snapshot != nil {
		s := m.Snapshot
		dst = appendUint64(dst, s.Index)
		dst = appendUint64(dst, s.Term)
		dst = appendUint32(dst, uint32(len(s.Peers)))
		for _, p := range s.Peers {
			dst = appendUint64(dst, p)
		}
		dst = appendBytes(dst, s.Data)
	}
	return dst
}

// DecodeRaftPayload decodes a KindRaft payload. Entry data, snapshot
// contents and peer lists are copied out of b, so the caller may
// recycle the read buffer immediately.
func DecodeRaftPayload(b []byte) (raft.Message, error) {
	var m raft.Message
	if len(b) < raftFixedSize+4 {
		return m, fmt.Errorf("%w: raft payload is %d bytes", ErrTruncated, len(b))
	}
	m.Type = raft.MsgType(b[0])
	flags := b[1]
	if flags&^(raftFlagGranted|raftFlagReject|raftFlagSnapshot) != 0 {
		return m, fmt.Errorf("%w: unknown raft flags %#x", ErrBadFrame, flags)
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
	nEntries, b, err := readUint32(b)
	if err != nil {
		return m, err
	}
	// Each entry costs ≥ 21 bytes on the wire; reject counts the
	// remaining payload cannot hold before allocating.
	if uint64(nEntries)*21 > uint64(len(b)) {
		return m, fmt.Errorf("%w: %d entries in %d bytes", ErrTruncated, nEntries, len(b))
	}
	if nEntries > 0 {
		m.Entries = make([]raft.Entry, nEntries)
		for i := range m.Entries {
			e := &m.Entries[i]
			if e.Index, b, err = readUint64(b); err != nil {
				return m, err
			}
			if e.Term, b, err = readUint64(b); err != nil {
				return m, err
			}
			if len(b) < 1 {
				return m, ErrTruncated
			}
			e.Type = raft.EntryType(b[0])
			b = b[1:]
			if e.Data, b, err = readBytes(b); err != nil {
				return m, err
			}
		}
	}
	if flags&raftFlagSnapshot != 0 {
		s := &raft.Snapshot{}
		if s.Index, b, err = readUint64(b); err != nil {
			return m, err
		}
		if s.Term, b, err = readUint64(b); err != nil {
			return m, err
		}
		nPeers, rest, err := readUint32(b)
		if err != nil {
			return m, err
		}
		b = rest
		if uint64(nPeers)*8 > uint64(len(b)) {
			return m, fmt.Errorf("%w: %d snapshot peers in %d bytes", ErrTruncated, nPeers, len(b))
		}
		if nPeers > 0 {
			s.Peers = make([]uint64, nPeers)
			for i := range s.Peers {
				s.Peers[i], b, _ = readUint64(b)
			}
		}
		if s.Data, b, err = readBytes(b); err != nil {
			return m, err
		}
		m.Snapshot = s
	}
	if len(b) != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes after raft payload", ErrBadFrame, len(b))
	}
	return m, nil
}

// ReadRaftFrame reads one complete raft frame from r, reusing scratch
// as the payload read buffer (grown as needed, returned for the next
// call). It is the receive-loop counterpart of AppendRaftFrame.
func ReadRaftFrame(r io.Reader, scratch []byte) (raft.Message, []byte, error) {
	kind, payload, scratch, err := readFrame(r, scratch)
	if err != nil {
		return raft.Message{}, scratch, err
	}
	if kind != KindRaft {
		return raft.Message{}, scratch, fmt.Errorf("%w: kind %s, want %s", ErrBadFrame, kind, KindRaft)
	}
	m, err := DecodeRaftPayload(payload)
	return m, scratch, err
}

// readFrame reads one header + payload from r into scratch.
func readFrame(r io.Reader, scratch []byte) (kind Kind, payload, grown []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, scratch, err
	}
	kind, n, err := ParseHeader(hdr[:])
	if err != nil {
		return 0, nil, scratch, err
	}
	buf, err := readPayload(r, n, scratch)
	if err != nil {
		return 0, nil, buf, err
	}
	return kind, buf, buf, nil
}
