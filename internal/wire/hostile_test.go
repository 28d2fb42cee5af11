package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/raft"
)

// Adversarial-frame suite: every decoder must survive hostile input —
// lying length fields, bit-flipped headers and payloads, truncated float
// blocks — by returning an error (or, for semantically harmless payload
// flips, a different message), never by panicking or allocating on the
// attacker's say-so. Run under -race via make race.

func hostileSamples() map[string][]byte {
	mesh := AppendMeshFrame(nil, MeshMessage{
		From: 3, To: 1, Kind: "sac/share", ShareIdx: 2,
		Payload: []float64{1.5, -2.25, 1e9, 0.125},
	})
	rft := AppendRaftFrame(nil, raft.Message{
		Type: raft.MsgAppend, From: 1, To: 5, Term: 7, PrevLogIndex: 10, PrevLogTerm: 6, Commit: 9,
		Entries:  []raft.Entry{{Index: 11, Term: 7, Data: []byte("cmd")}, {Index: 12, Term: 7}},
		Snapshot: &raft.Snapshot{Index: 10, Term: 6, Peers: []uint64{1, 2, 5}, Data: []byte("snap")},
	})
	cp := AppendCheckpointFrame(nil, Checkpoint{
		Names: []string{"w0", "b0"}, Sizes: []int{3, 1},
		Weights: []float64{0.5, -0.5, 1, 2},
	})
	state := AppendRaftStateFrame(nil, goldenRaftState())
	return map[string][]byte{"mesh": mesh, "raft": rft, "checkpoint": cp, "raft-state": state}
}

// decodeFrame drives the full io.Reader path for the sample's kind.
func decodeFrame(kind string, b []byte) error {
	r := bytes.NewReader(b)
	switch kind {
	case "mesh":
		_, _, err := ReadMeshFrame(r, nil)
		return err
	case "raft":
		_, _, err := ReadRaftFrame(r, nil)
		return err
	case "raft-state":
		_, err := ReadRaftStateFrame(r)
		return err
	default:
		_, err := ReadCheckpointFrame(r)
		return err
	}
}

// TestBitFlipSweepNeverPanics flips every single bit of every valid
// frame and decodes the result: any outcome is acceptable except a
// panic. Header flips must error (magic, version, reserved bytes and
// length are all load-bearing); payload flips may legitimately decode
// to a different message.
func TestBitFlipSweepNeverPanics(t *testing.T) {
	for kind, frame := range hostileSamples() {
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				mutated := append([]byte(nil), frame...)
				mutated[i] ^= 1 << bit
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: flip byte %d bit %d: panic %v", kind, i, bit, r)
						}
					}()
					err := decodeFrame(kind, mutated)
					if i < 8 && err == nil {
						// Magic, version, kind or reserved byte flipped:
						// the header validator must reject (a kind flip
						// decodes as the wrong frame type, also an error).
						t.Fatalf("%s: header flip byte %d bit %d accepted", kind, i, bit)
					}
				}()
			}
		}
	}
}

// TestEveryTruncationErrors streams every strict prefix of every valid
// frame: all must error cleanly, including cuts inside float blocks,
// entry batches and the snapshot peer list.
func TestEveryTruncationErrors(t *testing.T) {
	for kind, frame := range hostileSamples() {
		for i := 0; i < len(frame); i++ {
			if err := decodeFrame(kind, frame[:i]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d-byte frame accepted", kind, i, len(frame))
			}
		}
	}
}

// lieLength rewrites the header's payload-length field.
func lieLength(frame []byte, n uint32) []byte {
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[8:12], n)
	return out
}

// TestLengthFieldLies covers both directions of a forged length: a
// shorter claim leaves trailing payload bytes (rejected), a longer claim
// starves the reader (rejected), and an absurd claim must not translate
// into an absurd allocation.
func TestLengthFieldLies(t *testing.T) {
	for kind, frame := range hostileSamples() {
		truth := binary.LittleEndian.Uint32(frame[8:12])
		for _, lie := range []uint32{0, truth - 1, truth + 1, truth * 2, MaxPayload} {
			if lie == truth {
				continue
			}
			if err := decodeFrame(kind, lieLength(frame, lie)); err == nil {
				t.Fatalf("%s: length lie %d (truth %d) accepted", kind, lie, truth)
			}
		}
	}
}

// shortStream yields a valid header of the given kind claiming `claim`
// payload bytes but delivers only `deliver` (zero) bytes of them before
// EOF.
func shortStream(kind Kind, claim uint32, deliver int) io.Reader {
	b := AppendHeader(nil, kind, 0)
	binary.LittleEndian.PutUint32(b[8:12], claim)
	return bytes.NewReader(append(b, make([]byte, deliver)...))
}

// TestLyingLengthBoundsAllocation is the over-allocation guard of the
// buffered reader (raft, checkpoint and raft-state frames): a header
// claiming MaxPayload on a nearly empty stream must
// fail with the read buffer still at the prealloc cap — the attacker's
// 12 bytes cannot buy a gigabyte of our memory. The streaming mesh
// decoder's bound is pinned in stream_test.go.
func TestLyingLengthBoundsAllocation(t *testing.T) {
	_, scratch, err := ReadRaftFrame(shortStream(KindRaft, MaxPayload, 100), nil)
	if err == nil {
		t.Fatal("starved frame accepted")
	}
	if cap(scratch) > framePrealloc {
		t.Fatalf("lying header drove allocation to %d bytes (cap %d)", cap(scratch), framePrealloc)
	}

	// With real bytes arriving, growth must track what was actually
	// received (geometric, ≤ 2×), not the claim.
	const delivered = 200 << 10
	_, scratch, err = ReadRaftFrame(shortStream(KindRaft, MaxPayload, delivered), nil)
	if err == nil {
		t.Fatal("starved frame accepted")
	}
	if cap(scratch) > 2*delivered {
		t.Fatalf("allocation %d not bounded by twice the %d delivered bytes", cap(scratch), delivered)
	}

	// A retired compressed-mesh kind buys nothing at all: the mesh
	// decoder refuses it on the header and reads none of the claim.
	stream := shortStream(KindDeltaSparse, MaxPayload, delivered)
	_, scratch, err = ReadMeshFrame(stream, nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("%s frame on a mesh stream: err = %v, want ErrBadFrame", KindDeltaSparse, err)
	}
	if cap(scratch) != 0 || stream.(*bytes.Reader).Len() != delivered {
		t.Fatalf("refusing a %s frame cost %d bytes of scratch and read %d payload bytes",
			KindDeltaSparse, cap(scratch), delivered-stream.(*bytes.Reader).Len())
	}
}

// TestHonestLargeFrameStillDecodes pins the other side of the prealloc
// cap: a genuine payload above framePrealloc must still round-trip
// through the growing reader.
func TestHonestLargeFrameStillDecodes(t *testing.T) {
	payload := make([]float64, (framePrealloc/8)*3) // ~3× the prealloc cap
	for i := range payload {
		payload[i] = float64(i)
	}
	frame := AppendMeshFrame(nil, MeshMessage{From: 1, To: 2, Kind: "sac/share", Payload: payload})
	m, _, err := ReadMeshFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("honest large frame rejected: %v", err)
	}
	if len(m.Payload) != len(payload) || m.Payload[17] != 17 {
		t.Fatalf("large payload mangled: %d elements", len(m.Payload))
	}
}

// TestNestedLengthLies forges inner length prefixes (string and float
// counts) beyond the enclosing payload: decoders must reject before
// trusting them with an allocation.
func TestNestedLengthLies(t *testing.T) {
	// Mesh payload with a kind-string length claiming past the end.
	b := AppendHeader(nil, KindMesh, 8*3+4+4)
	b = appendUint64(b, 1)
	b = appendUint64(b, 2)
	b = appendUint64(b, 0)
	b = appendUint32(b, 1<<30) // kind-string length lie
	b = appendUint32(b, 0)
	if _, _, err := ReadMeshFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("kind-string length lie accepted")
	}

	// Mesh payload whose float-count field claims 2^28 elements backed by
	// no bytes.
	b = AppendHeader(nil, KindMesh, 8*3+4+1+4)
	b = appendUint64(b, 1)
	b = appendUint64(b, 2)
	b = appendUint64(b, 0)
	b = appendString(b, "k")
	b = appendUint32(b, 1<<28) // float-count lie
	if _, _, err := ReadMeshFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("float-count lie accepted")
	}

	// Raft entry batch claiming 2^30 entries in a tiny payload.
	b = AppendHeader(nil, KindRaft, raftFixedSize+4)
	b = append(b, make([]byte, raftFixedSize)...)
	b = appendUint32(b, 1<<30) // entry-count lie
	if _, _, err := ReadRaftFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("entry-count lie accepted")
	}
}

// gobRaftState is what the daemon's -state file held before the wire
// codec: the complete encoding/gob stream, type preamble included, of
// PersistentState{Hard: {3, 2, 1}, Log: [{1, 3, normal, "x"}],
// Peers: [1 2 3]}.
const gobRaftState = "487f0301010f50657273697374656e74537461746501ff8000010401044861726401ff82000108536e617073686f" +
	"7401ff840001034c6f6701ff8a000105506565727301ff8600000038ff810301010948617264537461746501ff8200010301045465" +
	"726d0106000108566f746564466f720106000106436f6d6d697401060000003dff8303010108536e617073686f7401ff8400010401" +
	"05496e64657801060001045465726d0106000105506565727301ff8600010444617461010a00000016ff85020101085b5d75696e74" +
	"363401ff8600010600001bff890201010c5b5d726166742e456e74727901ff8a0001ff88000038ff8703010105456e74727901ff88" +
	"0001040105496e64657801060001045465726d010600010454797065010400010444617461010a0000001aff800101030102010100" +
	"02010101010302017800010301020300"

// TestHostileRaftState: the durable-state decoder guards every count
// before allocating on it, accepts nothing after its payload, and
// reads neither another kind's frame nor another format's file.
func TestHostileRaftState(t *testing.T) {
	// header(kind, payload...) frames a hand-built payload honestly.
	frame := func(kind Kind, payload []byte) []byte {
		return append(AppendHeader(nil, kind, len(payload)), payload...)
	}
	fixed := make([]byte, raftStateFixedSize) // no flags, zero hard state

	// A peer list of 2^29 ids backed by eight bytes.
	b := appendUint32(append([]byte(nil), fixed...), 1<<29)
	b = append(b, make([]byte, 8)...)
	if _, err := ReadRaftStateFrame(bytes.NewReader(frame(KindRaftState, b))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("peer-count lie: err = %v, want ErrTruncated", err)
	}
	// A log of 2^30 entries backed by one entry's worth of bytes.
	b = appendPeers(append([]byte(nil), fixed...), nil)
	b = appendUint32(b, 1<<30)
	b = append(b, make([]byte, entryMinSize)...)
	if _, err := ReadRaftStateFrame(bytes.NewReader(frame(KindRaftState, b))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("entry-count lie: err = %v, want ErrTruncated", err)
	}
	// Neither rejection may cost more than the frame itself: a handful
	// of allocations (3; the race detector's build makes one more), not
	// one per claimed entry.
	lie := frame(KindRaftState, b)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeRaftStatePayload(lie[HeaderSize:]); err == nil {
			panic("accepted")
		}
	}); allocs > 4 {
		t.Fatalf("rejecting an entry-count lie allocates %v times", allocs)
	}

	good := AppendRaftStateFrame(nil, goldenRaftState())
	// One byte after the snapshot, covered by the length field.
	trailing := append(append([]byte(nil), good...), 0)
	binary.LittleEndian.PutUint32(trailing[8:12], uint32(len(trailing)-HeaderSize))
	if _, err := ReadRaftStateFrame(bytes.NewReader(trailing)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte: err = %v, want ErrBadFrame", err)
	}
	// An undefined flag bit.
	flagged := append([]byte(nil), good...)
	flagged[HeaderSize] |= 0x80
	if _, err := ReadRaftStateFrame(bytes.NewReader(flagged)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown flag: err = %v, want ErrBadFrame", err)
	}
	// The same payload under the message kind, and a message under the
	// state kind's reader.
	if _, _, err := ReadRaftFrame(bytes.NewReader(frame(KindRaft, good[HeaderSize:])), nil); err == nil {
		t.Fatal("raft-state payload accepted as a raft message")
	}
	if _, err := ReadRaftStateFrame(bytes.NewReader(hostileSamples()["raft"])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("wrong kind: err = %v, want ErrBadFrame", err)
	}
	// A gob stream is not sniffed, not skipped over: bad magic.
	stream, err := hex.DecodeString(gobRaftState)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRaftStateFrame(bytes.NewReader(stream)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("gob stream: err = %v, want ErrBadMagic", err)
	}
}

// TestSparseDimensionLie: a sparse block's dimension is backed by no
// bytes — one entry suffices — yet SparseDelta.Dense allocates that many
// floats. A dimension no dense vector could be framed at is rejected by
// the block reader; the largest frameable one still decodes.
func TestSparseDimensionLie(t *testing.T) {
	entry := SparseDelta{Idx: []int32{0}, Vals: []float64{1}}
	for _, dim := range []int{MaxPayload/8 + 1, math.MaxUint32} {
		entry.Dim = dim
		if _, _, err := readSparseBlock(appendSparseBlock(nil, entry)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("dim %d: readSparseBlock err = %v, want ErrBadFrame", dim, err)
		}
	}
	entry.Dim = MaxPayload / 8
	if s, _, err := readSparseBlock(appendSparseBlock(nil, entry)); err != nil || s.Dim != entry.Dim {
		t.Fatalf("largest frameable dimension: dim %d, err %v", s.Dim, err)
	}
}

// TestHostileFramesDoNotOverAllocate bounds allocation count on the
// rejection paths: refusing garbage must not cost buffers.
func TestHostileFramesDoNotOverAllocate(t *testing.T) {
	frame := hostileSamples()["mesh"]
	bad := lieLength(frame, MaxPayload)
	scratch := make([]byte, 0, framePrealloc)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ReadMeshFrame(bytes.NewReader(bad), scratch); err == nil {
			panic("accepted")
		}
	})
	// One reader, the decoder state, the kind string and one wrapped
	// error with its boxed operands are tolerated; payload buffers are not.
	if allocs > 8 {
		t.Fatalf("rejection path allocates %v times per frame", allocs)
	}
}
