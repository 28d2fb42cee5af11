package wire

import (
	"fmt"
	"io"
)

// Mesh payload layout (inside a KindMesh frame), version 1 — one SAC
// mesh message (share, subtotal, recovery request/response):
//
//	from      i64 (two's complement in a u64 word)
//	to        i64
//	shareIdx  i64
//	kind      string (u32 length + bytes)
//	payload   float64 vector (u32 count + count·8 bytes LE)
//
// MeshMessage mirrors transport.Message field for field; the transport
// package converts (it imports wire, so wire cannot import it back).
type MeshMessage struct {
	From, To int
	Kind     string
	ShareIdx int
	Payload  []float64
}

// MeshPayloadSize returns the exact encoded payload size of a mesh
// message with the given kind string and payload element count.
func MeshPayloadSize(kind string, payloadLen int) int {
	return meshFixedSize + len(kind) + Float64sSize(payloadLen)
}

// appendMeshHead appends everything of a mesh frame that precedes the
// vector words: header, envelope and element count.
func appendMeshHead(dst []byte, m MeshMessage) []byte {
	dst = AppendHeader(dst, KindMesh, MeshPayloadSize(m.Kind, len(m.Payload)))
	dst = appendMeshEnvelope(dst, m)
	return appendUint32(dst, uint32(len(m.Payload)))
}

func appendMeshEnvelope(dst []byte, m MeshMessage) []byte {
	dst = appendUint64(dst, uint64(int64(m.From)))
	dst = appendUint64(dst, uint64(int64(m.To)))
	dst = appendUint64(dst, uint64(int64(m.ShareIdx)))
	return appendString(dst, m.Kind)
}

// AppendMeshFrame appends a complete frame for one mesh message. It is
// the buffered form of MeshEncoder.WriteFrame: same bytes, built in
// memory.
func AppendMeshFrame(dst []byte, m MeshMessage) []byte {
	return appendWords(appendMeshHead(dst, m), m.Payload)
}

// DecodeMeshPayload decodes a KindMesh payload held in memory. The kind
// string and payload vector are copied out of b. Streams go through
// MeshDecoder, which accepts exactly the payloads this function accepts.
func DecodeMeshPayload(b []byte) (MeshMessage, error) {
	var m MeshMessage
	u, b, err := readUint64(b)
	if err != nil {
		return m, err
	}
	m.From = int(int64(u))
	if u, b, err = readUint64(b); err != nil {
		return m, err
	}
	m.To = int(int64(u))
	if u, b, err = readUint64(b); err != nil {
		return m, err
	}
	m.ShareIdx = int(int64(u))
	if m.Kind, b, err = readString(b); err != nil {
		return m, err
	}
	if m.Payload, b, err = ReadFloat64s(b, nil); err != nil {
		return m, err
	}
	if len(b) != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes after mesh payload", ErrBadFrame, len(b))
	}
	return m, nil
}

// ReadMeshFrame reads one complete KindMesh frame from r through a
// fresh MeshDecoder, reusing scratch as its byte scratch (returned,
// possibly grown, for the next call). A long-lived stream should keep
// one MeshDecoder instead: it also remembers what the stream has
// delivered, which this per-call form cannot.
func ReadMeshFrame(r io.Reader, scratch []byte) (MeshMessage, []byte, error) {
	d := MeshDecoder{scratch: scratch}
	m, err := d.ReadFrame(r, nil)
	if err != nil {
		return MeshMessage{}, d.scratch, err
	}
	return m, d.scratch, nil
}
