package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The compressed model-delta blocks. A full-fat float64 vector costs
// the paper's unit |w| = 8·dim; the cost model's distribution terms
// (Eqs. 4/5/10) are dominated by exactly that unit, so compression
// replaces it with:
//
//   - a fixed-point quantized block: every coordinate becomes one int8
//     or int16 step count against a per-tensor scale, 8× or 4× smaller
//     than float64;
//   - a top-k sparsified block: only the k largest-magnitude
//     coordinates travel, as an index block plus a value block (full
//     precision or quantized).
//
// Quantized block layout (also the weight section of a
// KindCheckpointQuant frame):
//
//	width   u8   bytes per element: 1 (int8) or 2 (int16)
//	scale   f64  step size; element i dequantizes to scale·q_i
//	count   u32
//	values  count·width bytes, little-endian two's complement
//
// Sparse block layout:
//
//	dim     u32  original dense dimension
//	count   u32  number of kept coordinates (k ≤ dim)
//	width   u8   0 (float64 values), 1 (int8) or 2 (int16)
//	scale   f64  only present when width > 0
//	indices count·u32, strictly ascending, all < dim
//	values  count·8 bytes (width 0) or count·width bytes
//
// No mesh frame carries a block: core compresses the FedAvg legs in
// place and charges QuantBlockSize/SparseBlockSize for them, and the two
// frame kinds that once wrapped a block in a mesh envelope (4, 5) are
// retired and stay reserved. The layout is what those charged sizes
// mean, so the block codecs remain as its definition: the golden blocks
// in testdata/ and the len(encoding) == closed-form tests pin them. Decoders are strict (unknown width,
// non-ascending or out-of-range indices, counts that do not fit all
// rejected) and encoding is canonical: decode→re-encode is
// byte-identical, enforced by the fuzz round-trip.

// QuantDelta is a dense fixed-point quantized vector: element i
// reconstructs to Scale·Q[i]. Width 1 stores int8 steps (Q values must
// fit [-128, 127] — the compress package's quantizer guarantees this),
// width 2 stores int16 steps.
type QuantDelta struct {
	Width int
	Scale float64
	Q     []int16
}

// SparseDelta is a top-k sparsified vector of original dimension Dim:
// coordinate Idx[i] reconstructs to Vals[i] (Width 0) or Scale·Q[i]
// (Width 1 or 2); every other coordinate is zero. Idx is strictly
// ascending.
type SparseDelta struct {
	Dim   int
	Idx   []int32
	Width int
	Scale float64
	Vals  []float64
	Q     []int16
}

// Dense reconstructs the full vector into dst (reused when its
// capacity suffices); dropped coordinates are zero.
func (s SparseDelta) Dense(dst []float64) []float64 {
	if cap(dst) < s.Dim {
		dst = make([]float64, s.Dim)
	}
	dst = dst[:s.Dim]
	for i := range dst {
		dst[i] = 0
	}
	if s.Width == 0 {
		for i, ix := range s.Idx {
			dst[ix] = s.Vals[i]
		}
		return dst
	}
	for i, ix := range s.Idx {
		dst[ix] = s.Scale * float64(s.Q[i])
	}
	return dst
}

// ---- closed-form sizes ----

// QuantBlockSize returns the encoded size of an n-element quantized
// block at the given width (1 or 2 bytes per element).
func QuantBlockSize(width, n int) int { return 1 + 8 + 4 + width*n }

// SparseBlockSize returns the encoded size of a k-element sparse block.
// width 0 keeps float64 values; 1 or 2 quantizes them.
func SparseBlockSize(width, k int) int {
	n := 4 + 4 + 1 + k*4
	if width == 0 {
		return n + 8*k
	}
	return n + 8 + width*k
}

// ---- block codecs ----

func appendQuantBlock(dst []byte, q QuantDelta) []byte {
	dst = append(dst, byte(q.Width))
	dst = appendUint64(dst, math.Float64bits(q.Scale))
	dst = appendUint32(dst, uint32(len(q.Q)))
	if q.Width == 1 {
		for _, v := range q.Q {
			dst = append(dst, byte(int8(v)))
		}
		return dst
	}
	for _, v := range q.Q {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
	}
	return dst
}

func readQuantBlock(b []byte) (QuantDelta, []byte, error) {
	var q QuantDelta
	if len(b) < 1 {
		return q, nil, ErrTruncated
	}
	q.Width = int(b[0])
	if q.Width != 1 && q.Width != 2 {
		return q, nil, fmt.Errorf("%w: quant width %d, want 1 or 2", ErrBadFrame, q.Width)
	}
	u, b, err := readUint64(b[1:])
	if err != nil {
		return q, nil, err
	}
	q.Scale = math.Float64frombits(u)
	n, b, err := readUint32(b)
	if err != nil {
		return q, nil, err
	}
	if uint64(n)*uint64(q.Width) > uint64(len(b)) {
		return q, nil, fmt.Errorf("%w: %d quant values in %d bytes", ErrTruncated, n, len(b))
	}
	q.Q = make([]int16, n)
	if q.Width == 1 {
		for i := range q.Q {
			q.Q[i] = int16(int8(b[i]))
		}
		return q, b[n:], nil
	}
	for i := range q.Q {
		q.Q[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return q, b[2*n:], nil
}

func appendSparseBlock(dst []byte, s SparseDelta) []byte {
	dst = appendUint32(dst, uint32(s.Dim))
	dst = appendUint32(dst, uint32(len(s.Idx)))
	dst = append(dst, byte(s.Width))
	if s.Width != 0 {
		dst = appendUint64(dst, math.Float64bits(s.Scale))
	}
	for _, ix := range s.Idx {
		dst = appendUint32(dst, uint32(ix))
	}
	switch s.Width {
	case 0:
		dst = appendWords(dst, s.Vals)
	case 1:
		for _, v := range s.Q {
			dst = append(dst, byte(int8(v)))
		}
	default:
		for _, v := range s.Q {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		}
	}
	return dst
}

func readSparseBlock(b []byte) (SparseDelta, []byte, error) {
	var s SparseDelta
	dim, b, err := readUint32(b)
	if err != nil {
		return s, nil, err
	}
	// Dense allocates dim floats whatever k is, so the dimension is
	// bounded by what a dense vector could itself be framed as.
	if dim > MaxPayload/8 {
		return s, nil, fmt.Errorf("%w: sparse dimension %d exceeds %d", ErrBadFrame, dim, MaxPayload/8)
	}
	s.Dim = int(dim)
	k, b, err := readUint32(b)
	if err != nil {
		return s, nil, err
	}
	if uint64(k) > uint64(dim) {
		return s, nil, fmt.Errorf("%w: %d sparse values for dimension %d", ErrBadFrame, k, dim)
	}
	if len(b) < 1 {
		return s, nil, ErrTruncated
	}
	s.Width = int(b[0])
	b = b[1:]
	if s.Width < 0 || s.Width > 2 {
		return s, nil, fmt.Errorf("%w: sparse width %d, want 0, 1 or 2", ErrBadFrame, s.Width)
	}
	if s.Width != 0 {
		var u uint64
		if u, b, err = readUint64(b); err != nil {
			return s, nil, err
		}
		s.Scale = math.Float64frombits(u)
	}
	vbytes := 8
	if s.Width != 0 {
		vbytes = s.Width
	}
	if uint64(k)*uint64(4+vbytes) > uint64(len(b)) {
		return s, nil, fmt.Errorf("%w: %d sparse entries in %d bytes", ErrTruncated, k, len(b))
	}
	s.Idx = make([]int32, k)
	for i := range s.Idx {
		var u uint32
		u, b, _ = readUint32(b)
		ix := int32(u)
		if uint64(u) >= uint64(dim) {
			return s, nil, fmt.Errorf("%w: sparse index %d out of [0,%d)", ErrBadFrame, u, dim)
		}
		if i > 0 && ix <= s.Idx[i-1] {
			return s, nil, fmt.Errorf("%w: sparse indices not strictly ascending (%d after %d)", ErrBadFrame, ix, s.Idx[i-1])
		}
		s.Idx[i] = ix
	}
	switch s.Width {
	case 0:
		s.Vals = make([]float64, k)
		copyWords(s.Vals, b)
		b = b[8*k:]
	case 1:
		s.Q = make([]int16, k)
		for i := range s.Q {
			s.Q[i] = int16(int8(b[i]))
		}
		b = b[k:]
	default:
		s.Q = make([]int16, k)
		for i := range s.Q {
			s.Q[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
		}
		b = b[2*k:]
	}
	return s, b, nil
}

// ---- quantized checkpoints ----

// QuantCheckpoint is a model checkpoint whose flat weight vector is
// fixed-point quantized: the schema travels as in Checkpoint, the
// weights as one quantized block.
type QuantCheckpoint struct {
	Names []string
	Sizes []int
	Delta QuantDelta
}

// QuantCheckpointPayloadSize returns the exact encoded payload size.
func QuantCheckpointPayloadSize(cp QuantCheckpoint) int {
	n := 4
	for _, name := range cp.Names {
		n += 4 + len(name) + 4
	}
	return n + QuantBlockSize(cp.Delta.Width, len(cp.Delta.Q))
}

// QuantCheckpointFrameSize returns the exact frame size, header
// included.
func QuantCheckpointFrameSize(cp QuantCheckpoint) int {
	return HeaderSize + QuantCheckpointPayloadSize(cp)
}

// AppendQuantCheckpointFrame appends a complete KindCheckpointQuant
// frame. Names and Sizes must be the same length.
func AppendQuantCheckpointFrame(dst []byte, cp QuantCheckpoint) []byte {
	dst = AppendHeader(dst, KindCheckpointQuant, QuantCheckpointPayloadSize(cp))
	dst = appendUint32(dst, uint32(len(cp.Names)))
	for i, name := range cp.Names {
		dst = appendString(dst, name)
		dst = appendUint32(dst, uint32(cp.Sizes[i]))
	}
	return appendQuantBlock(dst, cp.Delta)
}

// DecodeQuantCheckpointPayload decodes a KindCheckpointQuant payload,
// copying all contents out of b.
func DecodeQuantCheckpointPayload(b []byte) (QuantCheckpoint, error) {
	var cp QuantCheckpoint
	nParams, b, err := readUint32(b)
	if err != nil {
		return cp, err
	}
	if uint64(nParams)*8 > uint64(len(b)) {
		return cp, fmt.Errorf("%w: %d params in %d bytes", ErrTruncated, nParams, len(b))
	}
	if nParams > 0 {
		cp.Names = make([]string, nParams)
		cp.Sizes = make([]int, nParams)
		for i := range cp.Names {
			if cp.Names[i], b, err = readString(b); err != nil {
				return cp, err
			}
			var sz uint32
			if sz, b, err = readUint32(b); err != nil {
				return cp, err
			}
			cp.Sizes[i] = int(sz)
		}
	}
	if cp.Delta, b, err = readQuantBlock(b); err != nil {
		return cp, err
	}
	if len(b) != 0 {
		return cp, fmt.Errorf("%w: %d trailing bytes after %s payload", ErrBadFrame, len(b), KindCheckpointQuant)
	}
	return cp, nil
}

// ReadQuantCheckpointFrame reads one complete KindCheckpointQuant frame
// from r.
func ReadQuantCheckpointFrame(r io.Reader) (QuantCheckpoint, error) {
	return readOne(r, KindCheckpointQuant, DecodeQuantCheckpointPayload)
}
