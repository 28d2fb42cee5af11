package wire

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/raft"
)

// FuzzWireRoundTrip drives arbitrary bytes through every decoder (no
// panics, no absurd allocations) and, when the input parses, re-encodes
// the result and requires a byte-identical frame — the codec has exactly
// one encoding per value. A frame of a retired kind must be refused by
// every reader; the blocks inside kinds 4 and 5 still round-trip.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(AppendRaftFrame(nil, raft.Message{Type: raft.MsgAppend, From: 1, To: 2, Term: 3,
		Entries: []raft.Entry{{Index: 1, Term: 3, Data: []byte("d")}}}))
	f.Add(AppendMeshFrame(nil, MeshMessage{From: 1, To: 2, Kind: "sac/share", ShareIdx: 1, Payload: []float64{1, 2}}))
	f.Add(AppendCheckpointFrame(nil, Checkpoint{Names: []string{"w"}, Sizes: []int{1}, Weights: []float64{0.5}}))
	env := MeshMessage{From: 1, To: 2, Kind: "fedavg/download"}
	f.Add(retiredDeltaFrame(KindDeltaQuant, env, appendQuantBlock(nil,
		QuantDelta{Width: 1, Scale: 0.5, Q: []int16{1, -2, 3}})))
	f.Add(retiredDeltaFrame(KindDeltaSparse, env, appendSparseBlock(nil,
		SparseDelta{Dim: 8, Idx: []int32{1, 6}, Width: 0, Vals: []float64{0.5, -0.25}})))
	f.Add(retiredDeltaFrame(KindDeltaSparse, env, appendSparseBlock(nil,
		SparseDelta{Dim: 8, Idx: []int32{0, 7}, Width: 2, Scale: 0.125, Q: []int16{300, -300}})))
	f.Add(retiredQuantCheckpointFrame([]string{"w"}, []int{2}, appendQuantBlock(nil,
		QuantDelta{Width: 2, Scale: 0.25, Q: []int16{5, -5}})))
	f.Add(AppendRaftStateFrame(nil, raft.PersistentState{Hard: raft.HardState{Term: 2, VotedFor: 1},
		Log: []raft.Entry{{Index: 1, Term: 2, Type: raft.EntryNoop}}, Peers: []uint64{1, 2}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, n, err := ParseHeader(data)
		if err != nil {
			return
		}
		if n > len(data)-HeaderSize {
			n = len(data) - HeaderSize
		}
		payload := data[HeaderSize : HeaderSize+n]
		if slices.Contains(retiredKinds, kind) {
			for name, read := range frameReaders {
				if read(bytes.NewReader(data)) == nil {
					t.Fatalf("%s accepted a %s frame", name, kind)
				}
			}
		}
		switch kind {
		case KindRaft:
			m, err := decodeRaftPayload(payload)
			if err != nil {
				return
			}
			re := AppendRaftFrame(nil, m)
			if !bytes.Equal(re[HeaderSize:], payload) {
				t.Fatalf("raft re-encode differs:\n in  % x\n out % x", payload, re[HeaderSize:])
			}
			m2, err := decodeRaftPayload(re[HeaderSize:])
			if err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("raft second decode: %v", err)
			}
		case KindMesh:
			m, err := decodeMeshPayload(payload)
			if err != nil {
				return
			}
			re := AppendMeshFrame(nil, m)
			if !bytes.Equal(re[HeaderSize:], payload) {
				t.Fatalf("mesh re-encode differs")
			}
		case KindCheckpoint:
			cp, err := decodeCheckpointPayload(payload)
			if err != nil {
				return
			}
			re := AppendCheckpointFrame(nil, cp)
			if !bytes.Equal(re[HeaderSize:], payload) {
				t.Fatalf("checkpoint re-encode differs")
			}
		case KindDeltaQuant:
			// The frame kind is retired; the block inside is not.
			block, err := deltaBlock(payload)
			if err != nil {
				return
			}
			q, rest, err := readQuantBlock(block)
			if err != nil {
				return
			}
			if re := appendQuantBlock(nil, q); !bytes.Equal(re, block[:len(block)-len(rest)]) {
				t.Fatalf("quant re-encode differs:\n in  % x\n out % x", block, re)
			}
		case KindDeltaSparse:
			block, err := deltaBlock(payload)
			if err != nil {
				return
			}
			s, rest, err := readSparseBlock(block)
			if err != nil {
				return
			}
			if re := appendSparseBlock(nil, s); !bytes.Equal(re, block[:len(block)-len(rest)]) {
				t.Fatalf("sparse re-encode differs:\n in  % x\n out % x", block, re)
			}
		case KindRaftState:
			ps, err := decodeRaftStatePayload(payload)
			if err != nil {
				return
			}
			re := AppendRaftStateFrame(nil, ps)
			if !bytes.Equal(re[HeaderSize:], payload) {
				t.Fatalf("raft state re-encode differs:\n in  % x\n out % x", payload, re[HeaderSize:])
			}
			ps2, err := decodeRaftStatePayload(re[HeaderSize:])
			if err != nil || !reflect.DeepEqual(ps, ps2) {
				t.Fatalf("raft state second decode: %v", err)
			}
		}
	})
}

// FuzzFloat64sRoundTrip checks the float-block primitive in isolation:
// any vector round-trips bit-exactly through a (possibly reused) dst.
func FuzzFloat64sRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := make([]float64, len(raw)/8)
		for i := range in {
			var u uint64
			for j := 0; j < 8; j++ {
				u = u<<8 | uint64(raw[8*i+j])
			}
			in[i] = math.Float64frombits(u)
		}
		enc := appendFloat64s(nil, in)
		out, rest, err := readFloat64s(enc, make([]float64, 0, len(in)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || len(out) != len(in) {
			t.Fatalf("rest=%d len=%d want len=%d", len(rest), len(out), len(in))
		}
		for i := range in {
			if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
				t.Fatalf("element %d not bit-exact", i)
			}
		}
	})
}
