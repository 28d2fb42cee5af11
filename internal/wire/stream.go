package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"unsafe"
)

// The streaming mesh codec moves a model-dimension vector between a
// []float64 and a socket in one pass. The frame layout is exactly the
// one AppendMeshFrame produces; only the number of times user space
// touches the 8·dim vector bytes changes:
//
//   - MeshEncoder writes header, envelope and element count from a small
//     buffer and the vector words straight from the caller's slice
//     (one vectored write, no frame buffer);
//   - MeshDecoder parses header and envelope from the stream, checks
//     that the header's payload length is exactly what the envelope
//     implies before touching the vector, and reads the words directly
//     into the destination []float64.
//
// On little-endian hosts the in-memory words of a []float64 are the
// wire bytes, so "write the words" and "read the words" are plain byte
// copies of the slice's backing memory. Elsewhere (and in tests, which
// clear nativeLE to force it) the portable kernels convert word by word
// through a bounded staging buffer; both produce and accept the same
// golden frames.

// nativeLE is true when the host stores float64 words in wire order.
// Only tests assign it.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordBytes views v's backing memory as bytes (never the reverse, so
// alignment is not a concern). Only meaningful as wire data on
// little-endian hosts.
func wordBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// appendWords appends v's words little-endian: the one word-copy kernel
// behind every float-vector encoder. On little-endian hosts it is a
// single append of the backing bytes — growth does not clear what the
// copy is about to overwrite; the portable path grows, then converts in
// place.
func appendWords(dst []byte, v []float64) []byte {
	if nativeLE {
		return append(dst, wordBytes(v)...)
	}
	off := len(dst)
	dst = slices.Grow(dst, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(x))
	}
	return dst
}

// copyWords decodes len(dst) little-endian words from b into dst.
func copyWords(dst []float64, b []byte) {
	if nativeLE {
		copy(wordBytes(dst), b)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// stageWords is how many words the portable kernels convert per step:
// one framePrealloc of staging, small enough to stay cache-resident.
const stageWords = framePrealloc / 8

// MeshEncoder streams KindMesh frames to a writer. It owns the small
// header/envelope buffer, so a long-lived encoder (one per connection)
// allocates nothing per frame. The zero value is ready to use; an
// encoder must not be used concurrently.
type MeshEncoder struct {
	head []byte    // header + envelope + element count (portable: + staged words)
	vec  [2][]byte // backing array of bufs
	bufs net.Buffers
}

// WriteFrame writes the frame AppendMeshFrame(nil, m) would produce,
// byte for byte, without building it: the vector words go to w straight
// from m.Payload (one writev when w is a socket). m.Payload is only read
// and not retained.
func (e *MeshEncoder) WriteFrame(w io.Writer, m MeshMessage) error {
	e.head = appendMeshHead(e.head[:0], m)
	if !nativeLE {
		return e.writePortable(w, m.Payload)
	}
	e.vec = [2][]byte{e.head, wordBytes(m.Payload)}
	e.bufs = e.vec[:]
	_, err := e.bufs.WriteTo(w)
	e.vec = [2][]byte{} // drop the payload view on every path
	return err
}

// writePortable converts the vector through the head buffer one stage
// at a time; the first write carries the header along.
func (e *MeshEncoder) writePortable(w io.Writer, v []float64) error {
	buf := e.head
	for {
		n := min(len(v), stageWords)
		buf = appendWords(buf, v[:n])
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if v = v[n:]; len(v) == 0 {
			e.head = buf[:0]
			return nil
		}
		buf = buf[:0]
	}
}

// meshFixedSize is the fixed-width front of a mesh envelope: from, to,
// shareIdx and the kind string's length prefix.
const meshFixedSize = 3*8 + 4

// MeshDecoder is the streaming decoder of KindMesh frames for one
// inbound stream. It keeps the stream's byte scratch (kind strings,
// portable staging) and the size of the largest vector the stream has
// delivered in full, which is what it may pre-size the next vector to.
// The zero value is ready to use; a decoder must not be used
// concurrently.
//
// Allocation bound under hostile input: a frame whose length fields lie
// costs at most framePrealloc, or twice the bytes the stream has
// genuinely delivered — never an allocation sized by a header alone.
// Within one frame buffers grow geometrically as bytes arrive; across
// frames a vector may be pre-sized up to the largest vector this same
// stream already delivered (the memory the buffered reader used to
// retain per connection as its scratch). A destination supplied by the
// caller is filled directly: it is already paid for.
type MeshDecoder struct {
	scratch []byte
	proven  int // largest vector, in elements, delivered in full
	fixed   [HeaderSize + meshFixedSize]byte
}

// ReadFrame reads one KindMesh frame from r. A frame of any other kind
// is rejected on its 12-byte header, before a payload byte is read: a
// mesh socket carries the messages a round defines and nothing else,
// so the stream is not worth resynchronising and the caller closes it.
//
// vec, when non-nil, is asked for the destination of the vector once
// the frame has been validated: vec(n) returns a slice with capacity
// ≥ n (contents irrelevant) or nil, in which case the decoder allocates
// under the bound above. When the vector read fails, the returned
// message's Payload is the destination that was being filled — the
// slice vec handed out, or the decoder's own partial allocation —
// resliced to length zero: it may be partially overwritten, belongs to
// the caller again, and must not be delivered.
func (d *MeshDecoder) ReadFrame(r io.Reader, vec func(n int) []float64) (MeshMessage, error) {
	hdr := d.fixed[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return MeshMessage{}, err
	}
	kind, n, err := ParseHeader(hdr)
	if err != nil {
		return MeshMessage{}, err
	}
	if kind != KindMesh {
		return MeshMessage{}, fmt.Errorf("%w: kind %s, want %s", ErrBadFrame, kind, KindMesh)
	}
	return d.readMesh(r, n, vec)
}

// readMesh decodes a KindMesh payload of payloadLen bytes from r.
func (d *MeshDecoder) readMesh(r io.Reader, payloadLen int, vec func(n int) []float64) (MeshMessage, error) {
	var m MeshMessage
	if payloadLen < MeshPayloadSize("", 0) {
		return m, fmt.Errorf("%w: %d-byte mesh payload", ErrTruncated, payloadLen)
	}
	fixed := d.fixed[HeaderSize:]
	if _, err := io.ReadFull(r, fixed); err != nil {
		return m, shortPayload(err)
	}
	m.From = int(int64(binary.LittleEndian.Uint64(fixed[0:])))
	m.To = int(int64(binary.LittleEndian.Uint64(fixed[8:])))
	m.ShareIdx = int(int64(binary.LittleEndian.Uint64(fixed[16:])))
	kindLen := int(binary.LittleEndian.Uint32(fixed[24:]))
	if kindLen > payloadLen-MeshPayloadSize("", 0) {
		return m, fmt.Errorf("%w: %d-byte kind string in %d-byte mesh payload", ErrTruncated, kindLen, payloadLen)
	}
	// Kind string and element count, read under the same growth bound as
	// any other header-announced byte run.
	b, err := readPayload(r, kindLen+4, d.scratch)
	d.scratch = b[:0]
	if err != nil {
		return m, err
	}
	m.Kind = string(b[:kindLen])
	count := int(binary.LittleEndian.Uint32(b[kindLen:]))
	// The header and the envelope must agree to the byte before the
	// vector is touched: a short claim would leave trailing bytes, a long
	// one would read into the next frame.
	if want := int64(MeshPayloadSize(m.Kind, 0)) + 8*int64(count); int64(payloadLen) != want {
		if int64(payloadLen) < want {
			return m, fmt.Errorf("%w: %d floats in %d-byte mesh payload", ErrTruncated, count, payloadLen)
		}
		return m, fmt.Errorf("%w: %d trailing bytes after mesh payload", ErrBadFrame, int64(payloadLen)-want)
	}
	m.Payload, err = d.readVector(r, count, vec)
	return m, err
}

// readVector reads count words from r into a vec-supplied destination,
// or into one allocated under the decoder's bound.
func (d *MeshDecoder) readVector(r io.Reader, count int, vec func(n int) []float64) ([]float64, error) {
	if count == 0 {
		return nil, nil
	}
	if vec != nil {
		if dst := vec(count); cap(dst) >= count {
			if err := d.readWords(r, dst[:count]); err != nil {
				return dst[:0], err
			}
			d.proven = max(d.proven, count)
			return dst[:count], nil
		}
	}
	dst := make([]float64, 0, min(count, max(d.proven, stageWords)))
	for {
		start := len(dst)
		dst = dst[:cap(dst)]
		if err := d.readWords(r, dst[start:]); err != nil {
			return dst[:0], err
		}
		if len(dst) == count {
			d.proven = max(d.proven, count)
			return dst, nil
		}
		grown := make([]float64, len(dst), min(count, 2*len(dst)))
		copy(grown, dst)
		dst = grown
	}
}

// readWords fills dst from r: directly into its backing memory on
// little-endian hosts, through the byte scratch otherwise.
func (d *MeshDecoder) readWords(r io.Reader, dst []float64) error {
	if nativeLE {
		_, err := io.ReadFull(r, wordBytes(dst))
		return shortPayload(err)
	}
	if cap(d.scratch) < 8*stageWords {
		d.scratch = make([]byte, 0, 8*stageWords)
	}
	for len(dst) > 0 {
		n := min(len(dst), stageWords)
		stage := d.scratch[:8*n]
		if _, err := io.ReadFull(r, stage); err != nil {
			return shortPayload(err)
		}
		copyWords(dst[:n], stage)
		dst = dst[n:]
	}
	return nil
}

// shortPayload marks a read error that cut a payload short.
func shortPayload(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("wire: short payload: %w", err)
}

// framePrealloc caps what a reader allocates on a header's say-so.
// Larger payloads grow the buffer geometrically, but only after the
// bytes already promised have actually arrived — so a length-field lie
// on a short stream costs at most framePrealloc (or double the bytes
// genuinely received), never a MaxPayload-sized allocation.
const framePrealloc = 64 << 10

// readPayload reads n header-announced bytes from r into scratch
// (reused when large enough, grown under the framePrealloc bound
// otherwise). The returned buffer is the scratch to keep, also on
// error.
func readPayload(r io.Reader, n int, scratch []byte) ([]byte, error) {
	if cap(scratch) < n && cap(scratch) < framePrealloc {
		scratch = make([]byte, 0, min(n, framePrealloc))
	}
	buf := scratch[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			g := make([]byte, len(buf), min(n, 2*cap(buf)))
			copy(g, buf)
			buf = g
		}
		start := len(buf)
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf, shortPayload(err)
		}
	}
	return buf, nil
}
