// Package wire is the dependency-free binary codec for every payload
// shape the system moves between processes or keeps on disk: raft
// messages (with entry batches and snapshots), raft persistent state,
// SAC share/subtotal vectors, model checkpoints and directory updates. It is the tree's only serialiser on
// those paths: model-dimension float vectors
// dominate per-round traffic (Sec. VI-B3), and a reflective encoder
// with a per-stream type preamble would be pure tax on top of them.
//
// Every payload travels in one self-describing frame:
//
//	offset  size  field
//	0       4     magic "P2FW"
//	4       1     format version (currently 1)
//	5       1     payload kind (KindRaft | KindMesh | KindCheckpoint |
//	              KindDirectory | KindRaftState; 4, 5 and 6 are retired)
//	6       2     reserved, must be zero
//	8       4     payload length in bytes, uint32 little-endian
//	12      ...   payload (kind-specific layout, see raft.go/raftstate.go/
//	              mesh.go/checkpoint.go/directory.go and
//	              DESIGN.md §10, §12, §14)
//
// All integers are little-endian and fixed-width; []float64 vectors are
// encoded as a uint32 element count followed by 8·n bytes of IEEE-754
// bits (math.Float64bits), so a vector costs exactly the paper's cost
// unit |w| = 8·dim plus four bytes of length. Frames are stateless:
// there is no per-connection type preamble, so the first frame after a
// reconnect costs exactly as many bytes as every other frame, and a
// frame's size is computable without encoding it.
//
// Compatibility policy: the version byte covers the payload layouts.
// Decoders reject versions they do not know; layout changes bump the
// version and keep the old decoder path alive. Golden frames for each
// kind are checked into testdata/ so any accidental layout drift fails
// the cross-version golden tests.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame constants.
const (
	// magic opens every frame. Input that does not start with it — a
	// foreign or pre-wire file — is rejected with errBadMagic; no reader
	// sniffs for another format.
	magic = "P2FW"
	// version is the current frame format version.
	version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 12
)

// Kind identifies a frame's payload layout. It prints as the kind
// name ("raft", "mesh", …) so decoder errors and debug dumps stay
// readable; unknown values print as "kind(0xNN)".
type Kind byte

// Payload kinds. Kinds 4 and 5 wrapped a compressed block (delta.go) in
// a mesh envelope, and kind 6 wrapped a quantized block behind a
// checkpoint's schema; nothing ever sent one, so no encoder or decoder of
// them remains. The numbers stay reserved under their names — every
// reader rejects them on the header, and a new kind never reuses one.
const (
	// KindRaft frames carry one raft.Message.
	KindRaft Kind = 1
	// KindMesh frames carry one transport mesh message (SAC shares,
	// subtotals, recovery traffic).
	KindMesh Kind = 2
	// KindCheckpoint frames carry one model checkpoint.
	KindCheckpoint Kind = 3
	// KindDeltaQuant is retired: a mesh envelope plus a quantized block.
	KindDeltaQuant Kind = 4
	// KindDeltaSparse is retired: a mesh envelope plus a sparse block.
	KindDeltaSparse Kind = 5
	// KindCheckpointQuant is retired: a checkpoint schema plus a
	// quantized block.
	KindCheckpointQuant Kind = 6
	// KindDirectory frames carry one replicated peer-directory update
	// (join/leave with subgroup and share index) — the FedAvg-layer
	// log-entry payload of the continuous-churn control plane.
	KindDirectory Kind = 7
	// KindRaftState frames carry one raft.PersistentState (hard state,
	// membership, log and last snapshot) — the durable form of a raft
	// node, stored by the daemon and shipped by a graceful handoff.
	KindRaftState Kind = 8
)

// String returns the kind's wire-format name.
func (k Kind) String() string {
	switch k {
	case KindRaft:
		return "raft"
	case KindMesh:
		return "mesh"
	case KindCheckpoint:
		return "checkpoint"
	case KindDeltaQuant:
		return "delta-quant"
	case KindDeltaSparse:
		return "delta-sparse"
	case KindCheckpointQuant:
		return "checkpoint-quant"
	case KindDirectory:
		return "directory"
	case KindRaftState:
		return "raft-state"
	}
	return fmt.Sprintf("kind(0x%02x)", byte(k))
}

// maxPayload bounds a single frame's payload: 1 GiB is far above any
// real model (a 16M-parameter vector is 128 MiB) but small enough that
// a corrupt length prefix cannot drive a multi-gigabyte allocation.
const maxPayload = 1 << 30

// Errors returned by decoders, wrapped with context.
var (
	// errBadMagic reports a frame that does not open with magic.
	errBadMagic = fmt.Errorf("wire: bad magic")
	// errBadVersion reports an unknown format version.
	errBadVersion = fmt.Errorf("wire: unsupported version")
	// errTruncated reports a payload shorter than its layout requires.
	errTruncated = fmt.Errorf("wire: truncated payload")
	// errBadFrame reports any other malformed header or payload field.
	errBadFrame = fmt.Errorf("wire: malformed frame")
)

// appendHeader appends a frame header for a payload of payloadLen bytes
// and the given kind.
func appendHeader(dst []byte, kind Kind, payloadLen int) []byte {
	dst = append(dst, magic...)
	dst = append(dst, version, byte(kind), 0, 0)
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
}

// ParseHeader validates a 12-byte frame header and returns its kind and
// payload length.
func ParseHeader(h []byte) (kind Kind, payloadLen int, err error) {
	if len(h) < HeaderSize {
		return 0, 0, fmt.Errorf("%w: header is %d bytes, want %d", errTruncated, len(h), HeaderSize)
	}
	if string(h[:4]) != magic {
		return 0, 0, fmt.Errorf("%w: % x", errBadMagic, h[:4])
	}
	if h[4] != version {
		return 0, 0, fmt.Errorf("%w: %d", errBadVersion, h[4])
	}
	if h[6] != 0 || h[7] != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero reserved bytes", errBadFrame)
	}
	n := binary.LittleEndian.Uint32(h[8:12])
	if n > maxPayload {
		return 0, 0, fmt.Errorf("%w: payload length %d exceeds %d", errBadFrame, n, maxPayload)
	}
	return Kind(h[5]), int(n), nil
}

// ---- primitive appenders ----
//
// The appenders grow dst as needed and return the extended slice; the
// readers consume from the front of b and return the remainder. Sizing
// helpers let encoders pre-grow one buffer and telemetry account exact
// frame bytes without encoding twice.

func appendUint32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendUint64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func readUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errTruncated
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func readUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errTruncated
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// appendBytes appends a uint32-length-prefixed byte string.
func appendBytes(dst, v []byte) []byte {
	dst = appendUint32(dst, uint32(len(v)))
	return append(dst, v...)
}

// readBytes reads a length-prefixed byte string, copying it out of b so
// the caller may recycle the backing buffer.
func readBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n) > uint64(len(b)) {
		return nil, nil, errTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]byte, n)
	copy(out, b[:n])
	return out, b[n:], nil
}

// appendString appends a uint32-length-prefixed UTF-8 string.
func appendString(dst []byte, s string) []byte {
	dst = appendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(n) > uint64(len(b)) {
		return "", nil, errTruncated
	}
	return string(b[:n]), b[n:], nil
}

// appendFloat64s appends a float vector as a uint32 element count
// followed by len(v) little-endian IEEE-754 words — the contiguous
// block layout every model-dimension payload uses.
func appendFloat64s(dst []byte, v []float64) []byte {
	return appendWords(appendUint32(dst, uint32(len(v))), v)
}

// float64sSize returns the encoded size of an n-element float vector.
func float64sSize(n int) int { return 4 + 8*n }

// readFloat64s decodes a float vector into dst (reused when its
// capacity suffices, so steady-state decodes of a stable model
// dimension allocate nothing) and returns the vector and the rest of b.
func readFloat64s(b []byte, dst []float64) ([]float64, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*8 > uint64(len(b)) {
		return nil, nil, errTruncated
	}
	if cap(dst) < int(n) {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	copyWords(dst, b)
	return dst, b[8*n:], nil
}
