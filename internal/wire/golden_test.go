package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/raft"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden wire frames")

// goldenFrames are the cross-version compatibility contract: these
// exact byte sequences are what version 1 of the format means. If an
// encoder change alters any of them, that change broke every stored
// checkpoint and every mixed-version deployment — bump Version and add
// a new golden set instead of regenerating these.
func goldenFrames() map[string][]byte {
	raftMsg := raft.Message{
		Type: raft.MsgAppend, From: 1, To: 2, Term: 7,
		PrevLogIndex: 10, PrevLogTerm: 6, Commit: 9,
		Entries: []raft.Entry{
			{Index: 11, Term: 7, Type: raft.EntryNormal, Data: []byte("model-weights")},
			{Index: 12, Term: 7, Type: raft.EntryNoop},
		},
	}
	snapMsg := raft.Message{
		Type: raft.MsgSnapshot, From: 3, To: 1, Term: 9,
		Snapshot: &raft.Snapshot{Index: 20, Term: 8, Peers: []uint64{1, 2, 3}, Data: []byte("state")},
	}
	mesh := MeshMessage{
		From: 0, To: 4, Kind: "sac/share", ShareIdx: 2,
		Payload: []float64{1.0, -0.5, 0.25, 1e-12, 3.14159265358979},
	}
	cp := Checkpoint{
		Names:   []string{"conv0/W", "conv0/b", "dense1/W"},
		Sizes:   []int{3, 2, 4},
		Weights: []float64{0.1, -0.2, 0.3, 0.4, -0.5, 1.5, -2.5, 0.75, 0.125},
	}
	quant := MeshMessage{From: 1, To: 3, Kind: "fedavg/download", ShareIdx: -1}
	q8 := QuantDelta{Width: 1, Scale: 0.0078125, Q: []int16{127, -128, 0, 64, -1}}
	q16 := QuantDelta{Width: 2, Scale: 3.0517578125e-05, Q: []int16{32767, -32768, 0, 12345, -7}}
	sparse := SparseDelta{Dim: 16, Idx: []int32{0, 3, 7, 15}, Width: 0,
		Vals: []float64{-0.5, 1.25, 1e-9, 2.0}}
	sparseQ := SparseDelta{Dim: 16, Idx: []int32{2, 5, 11}, Width: 1,
		Scale: 0.015625, Q: []int16{-128, 127, 3}}
	qcp := QuantCheckpoint{
		Names: []string{"conv0/W", "dense1/W"},
		Sizes: []int{3, 2},
		Delta: QuantDelta{Width: 2, Scale: 6.103515625e-05, Q: []int16{100, -200, 300, -400, 500}},
	}
	dirJoin := DirectoryUpdate{Op: DirJoin, ID: 10, Subgroup: 2, ShareIndex: 1, Addr: "peer-10:7100"}
	dirLeave := DirectoryUpdate{Op: DirLeave, ID: 4, Subgroup: 1, ShareIndex: 0, Addr: "peer-4:7100"}
	return map[string][]byte{
		"raft_state_v1.wire":       AppendRaftStateFrame(nil, goldenRaftState()),
		"raft_append_v1.wire":      AppendRaftFrame(nil, raftMsg),
		"raft_snapshot_v1.wire":    AppendRaftFrame(nil, snapMsg),
		"mesh_share_v1.wire":       AppendMeshFrame(nil, mesh),
		"checkpoint_v1.wire":       AppendCheckpointFrame(nil, cp),
		"delta_quant8_v1.wire":     retiredDeltaFrame(KindDeltaQuant, quant, appendQuantBlock(nil, q8)),
		"delta_quant16_v1.wire":    retiredDeltaFrame(KindDeltaQuant, quant, appendQuantBlock(nil, q16)),
		"delta_sparse_v1.wire":     retiredDeltaFrame(KindDeltaSparse, quant, appendSparseBlock(nil, sparse)),
		"delta_sparse_q8_v1.wire":  retiredDeltaFrame(KindDeltaSparse, quant, appendSparseBlock(nil, sparseQ)),
		"checkpoint_quant_v1.wire": AppendQuantCheckpointFrame(nil, qcp),
		"directory_join_v1.wire":   AppendDirectoryFrame(nil, dirJoin),
		"directory_leave_v1.wire":  AppendDirectoryFrame(nil, dirLeave),
	}
}

// goldenRaftState is a compacted node's durable state: a snapshot at
// index 20, two log entries after it, and a three-peer configuration.
func goldenRaftState() raft.PersistentState {
	return raft.PersistentState{
		Hard:     raft.HardState{Term: 9, VotedFor: 3, Commit: 21},
		Snapshot: &raft.Snapshot{Index: 20, Term: 8, Peers: []uint64{1, 2, 3}, Data: []byte("state")},
		Log: []raft.Entry{
			{Index: 21, Term: 9, Type: raft.EntryNormal, Data: []byte("fedcfg")},
			{Index: 22, Term: 9, Type: raft.EntryNoop},
		},
		Peers: []uint64{1, 2, 3},
	}
}

func TestGoldenWireFiles(t *testing.T) {
	for name, frame := range goldenFrames() {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run `go test ./internal/wire -run Golden -update` after an intentional format change)", name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoder output drifted from the v1 golden frame.\n got  % x\n want % x\n"+
				"This is a wire-format break: bump wire.Version instead of regenerating goldens.",
				name, frame, want)
		}
		// The checked-in frame must also still decode to the same value
		// the current encoder produces it from (decoder compatibility).
		kind, n, err := ParseHeader(want)
		if err != nil {
			t.Fatalf("%s: golden header: %v", name, err)
		}
		if n != len(want)-HeaderSize {
			t.Fatalf("%s: golden payload length %d, frame has %d", name, n, len(want)-HeaderSize)
		}
		switch kind {
		case KindRaft:
			m, err := DecodeRaftPayload(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if re := AppendRaftFrame(nil, m); !bytes.Equal(re, want) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		case KindMesh:
			m, err := DecodeMeshPayload(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if re := AppendMeshFrame(nil, m); !bytes.Equal(re, want) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		case KindCheckpoint:
			cp, err := DecodeCheckpointPayload(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if re := AppendCheckpointFrame(nil, cp); !bytes.Equal(re, want) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		case KindDeltaQuant, KindDeltaSparse:
			// Retired frame kinds: what the golden pins is the block.
			block, err := deltaBlock(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: envelope: %v", name, err)
			}
			var re, rest []byte
			if kind == KindDeltaQuant {
				var q QuantDelta
				q, rest, err = readQuantBlock(block)
				re = appendQuantBlock(nil, q)
			} else {
				var s SparseDelta
				s, rest, err = readSparseBlock(block)
				re = appendSparseBlock(nil, s)
			}
			if err != nil || len(rest) != 0 {
				t.Fatalf("%s: decode: err %v, %d bytes left", name, err, len(rest))
			}
			if !bytes.Equal(re, block) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		case KindCheckpointQuant:
			qcp, err := DecodeQuantCheckpointPayload(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if re := AppendQuantCheckpointFrame(nil, qcp); !bytes.Equal(re, want) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		case KindDirectory:
			u, err := DecodeDirectoryPayload(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if re := AppendDirectoryFrame(nil, u); !bytes.Equal(re, want) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		case KindRaftState:
			ps, err := DecodeRaftStatePayload(want[HeaderSize:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if re := AppendRaftStateFrame(nil, ps); !bytes.Equal(re, want) {
				t.Errorf("%s: decode→re-encode not byte-identical", name)
			}
		default:
			t.Errorf("%s: kind %s has no decode→re-encode check", name, kind)
		}
	}
}

// TestGoldenDecodeValues pins the decoded VALUES of the golden frames,
// not just their bytes: a decoder regression that still re-encodes
// consistently (e.g. swapped field order in both directions) would pass
// the byte check but corrupt every stored artifact.
func TestGoldenDecodeValues(t *testing.T) {
	if *updateGolden {
		t.Skip("updating goldens")
	}
	b, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.wire"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	want := Checkpoint{
		Names:   []string{"conv0/W", "conv0/b", "dense1/W"},
		Sizes:   []int{3, 2, 4},
		Weights: []float64{0.1, -0.2, 0.3, 0.4, -0.5, 1.5, -2.5, 0.75, 0.125},
	}
	if !reflect.DeepEqual(cp, want) {
		t.Fatalf("golden checkpoint decoded to %+v", cp)
	}

	b, err = os.ReadFile(filepath.Join("testdata", "raft_state_v1.wire"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != RaftStateFrameSize(goldenRaftState()) {
		t.Fatalf("golden raft state is %d bytes, RaftStateFrameSize says %d", len(b), RaftStateFrameSize(goldenRaftState()))
	}
	ps, err := ReadRaftStateFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, goldenRaftState()) {
		t.Fatalf("golden raft state decoded to %+v", ps)
	}
	// The entry and snapshot blocks inside it are the KindRaft ones: the
	// same values sent as a message encode to the same bytes.
	msg := AppendRaftFrame(nil, raft.Message{Entries: ps.Log, Snapshot: ps.Snapshot})
	if tail := msg[HeaderSize+raftFixedSize:]; !bytes.HasSuffix(b, tail) {
		t.Fatal("raft-state frame does not end in the KindRaft entries+snapshot encoding")
	}
}

// TestRaftStateRestoresIntoWorkingNode: the other shape of durable
// state — never compacted, nothing logged yet — round-trips through the
// frame, and what comes out restores into a node that goes on to win an
// election and commit.
func TestRaftStateRestoresIntoWorkingNode(t *testing.T) {
	fresh, err := raft.NewNode(raft.Config{ID: 1, Peers: []uint64{1}, ElectionTickMin: 3, ElectionTickMax: 6, HeartbeatTick: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := fresh.Persist()
	if in.Snapshot != nil || len(in.Log) != 0 {
		t.Fatalf("fresh node persisted %+v", in)
	}
	frame := AppendRaftStateFrame(nil, in)
	if len(frame) != RaftStateFrameSize(in) {
		t.Fatalf("frame is %d bytes, RaftStateFrameSize says %d", len(frame), RaftStateFrameSize(in))
	}
	out, err := ReadRaftStateFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if out.Hard != in.Hard || out.Snapshot != nil || len(out.Log) != 0 || !reflect.DeepEqual(out.Peers, in.Peers) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	n, err := raft.Restore(raft.Config{ID: 1, ElectionTickMin: 3, ElectionTickMax: 6, HeartbeatTick: 1}, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && n.State() != raft.Leader; i++ {
		n.Tick()
	}
	if err := n.Propose([]byte("after restore")); err != nil {
		t.Fatalf("restored node cannot propose: %v", err)
	}
	if rd := n.Ready(); len(rd.Committed) == 0 {
		t.Fatal("restored node committed nothing")
	}
}
