package wire

import (
	"fmt"
	"io"
)

// Checkpoint payload layout (inside a KindCheckpoint frame), version 1
// — one model checkpoint: the parameter schema (names and sizes, used
// to reject mismatched architectures on load) plus the flat weight
// vector:
//
//	params   u32 count, then per parameter:
//	           name string (u32 length + bytes), size u32
//	weights  float64 vector (u32 count + count·8 bytes LE)
//
// nn builds a Checkpoint in Save and validates one in Load; cluster's
// departure hand-off ships the departing peer's model as one.
type Checkpoint struct {
	Names   []string
	Sizes   []int
	Weights []float64
}

// CheckpointPayloadSize returns the exact encoded payload size.
func CheckpointPayloadSize(cp Checkpoint) int {
	n := 4
	for _, name := range cp.Names {
		n += 4 + len(name) + 4
	}
	return n + Float64sSize(len(cp.Weights))
}

// AppendCheckpointFrame appends a complete checkpoint frame. Names and
// Sizes must be the same length.
func AppendCheckpointFrame(dst []byte, cp Checkpoint) []byte {
	dst = AppendHeader(dst, KindCheckpoint, CheckpointPayloadSize(cp))
	dst = appendUint32(dst, uint32(len(cp.Names)))
	for i, name := range cp.Names {
		dst = appendString(dst, name)
		dst = appendUint32(dst, uint32(cp.Sizes[i]))
	}
	return AppendFloat64s(dst, cp.Weights)
}

// DecodeCheckpointPayload decodes a KindCheckpoint payload, copying all
// contents out of b.
func DecodeCheckpointPayload(b []byte) (Checkpoint, error) {
	var cp Checkpoint
	nParams, b, err := readUint32(b)
	if err != nil {
		return cp, err
	}
	// Each parameter costs ≥ 8 bytes on the wire.
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
	if cp.Weights, b, err = ReadFloat64s(b, nil); err != nil {
		return cp, err
	}
	if len(b) != 0 {
		return cp, fmt.Errorf("%w: %d trailing bytes after checkpoint payload", ErrBadFrame, len(b))
	}
	return cp, nil
}

// ReadCheckpointFrame reads one complete checkpoint frame from r.
func ReadCheckpointFrame(r io.Reader) (Checkpoint, error) {
	return readOne(r, KindCheckpoint, DecodeCheckpointPayload)
}
