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
// Cluster's departure hand-off ships the departing peer's model as one.
type Checkpoint struct {
	Names   []string
	Sizes   []int
	Weights []float64
}

// checkpointPayloadSize returns the exact encoded payload size.
func checkpointPayloadSize(cp Checkpoint) int {
	n := 4
	for _, name := range cp.Names {
		n += 4 + len(name) + 4
	}
	return n + float64sSize(len(cp.Weights))
}

// AppendCheckpointFrame appends a complete checkpoint frame. Names and
// Sizes must be the same length.
func AppendCheckpointFrame(dst []byte, cp Checkpoint) []byte {
	dst = appendHeader(dst, KindCheckpoint, checkpointPayloadSize(cp))
	dst = appendUint32(dst, uint32(len(cp.Names)))
	for i, name := range cp.Names {
		dst = appendString(dst, name)
		dst = appendUint32(dst, uint32(cp.Sizes[i]))
	}
	return appendFloat64s(dst, cp.Weights)
}

// decodeCheckpointPayload decodes a KindCheckpoint payload, copying all
// contents out of b.
func decodeCheckpointPayload(b []byte) (Checkpoint, error) {
	var cp Checkpoint
	nParams, b, err := readUint32(b)
	if err != nil {
		return cp, err
	}
	// Each parameter costs ≥ 8 bytes on the wire.
	if uint64(nParams)*8 > uint64(len(b)) {
		return cp, fmt.Errorf("%w: %d params in %d bytes", errTruncated, nParams, len(b))
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
	if cp.Weights, b, err = readFloat64s(b, nil); err != nil {
		return cp, err
	}
	if len(b) != 0 {
		return cp, fmt.Errorf("%w: %d trailing bytes after checkpoint payload", errBadFrame, len(b))
	}
	return cp, nil
}

// ReadCheckpointFrame reads one complete checkpoint frame from r.
func ReadCheckpointFrame(r io.Reader) (Checkpoint, error) {
	return readOne(r, KindCheckpoint, decodeCheckpointPayload)
}
