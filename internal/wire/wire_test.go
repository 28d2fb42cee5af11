package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/raft"
)

func sampleRaftMessages() []raft.Message {
	return []raft.Message{
		{},
		{Type: raft.MsgVoteRequest, From: 1, To: 2, Term: 3, LastLogIndex: 9, LastLogTerm: 2},
		{Type: raft.MsgVoteResponse, From: 2, To: 1, Term: 3, Granted: true},
		// Pre-vote probes (WAN stability): same shape as real votes, a
		// distinct type byte the codec must pass through untouched.
		{Type: raft.MsgPreVoteRequest, From: 3, To: 1, Term: 4, LastLogIndex: 9, LastLogTerm: 2},
		{Type: raft.MsgPreVoteResponse, From: 1, To: 3, Term: 4, Granted: true},
		{Type: raft.MsgPreVoteResponse, From: 2, To: 3, Term: 3},
		{Type: raft.MsgAppendResponse, From: 4, To: 1, Term: 7, Reject: true, Match: 42},
		{Type: raft.MsgAppend, From: 1, To: 5, Term: 7, PrevLogIndex: 10, PrevLogTerm: 6,
			Commit: 9, Entries: []raft.Entry{
				{Index: 11, Term: 7, Type: raft.EntryNormal, Data: []byte("weights")},
				{Index: 12, Term: 7, Type: raft.EntryNoop},
				{Index: 13, Term: 7, Type: raft.EntryConfChange, Data: []byte(`{"add":true,"node_id":9}`)},
			}},
		{Type: raft.MsgSnapshot, From: 1, To: 3, Term: 8, Snapshot: &raft.Snapshot{
			Index: 20, Term: 8, Peers: []uint64{1, 2, 3}, Data: bytes.Repeat([]byte{0xAB}, 100)}},
		{Type: raft.MsgSnapshot, From: 1, To: 3, Term: 8, Snapshot: &raft.Snapshot{Index: 1, Term: 1}},
	}
}

func TestRaftRoundTrip(t *testing.T) {
	for i, m := range sampleRaftMessages() {
		frame := AppendRaftFrame(nil, m)
		if len(frame) != RaftFrameSize(m) {
			t.Fatalf("msg %d: frame is %d bytes, RaftFrameSize says %d", i, len(frame), RaftFrameSize(m))
		}
		kind, n, err := ParseHeader(frame)
		if err != nil || kind != KindRaft || n != len(frame)-HeaderSize {
			t.Fatalf("msg %d: header kind=%d len=%d err=%v", i, kind, n, err)
		}
		got, err := DecodeRaftPayload(frame[HeaderSize:])
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %d: round trip\n got %+v\nwant %+v", i, got, m)
		}
	}
}

func TestRaftStreamRoundTrip(t *testing.T) {
	msgs := sampleRaftMessages()
	var stream bytes.Buffer
	buf := GetBuffer()
	defer buf.Release()
	for _, m := range msgs {
		buf.B = AppendRaftFrame(buf.B[:0], m)
		stream.Write(buf.B)
	}
	var scratch []byte
	for i, want := range msgs {
		var got raft.Message
		var err error
		got, scratch, err = ReadRaftFrame(&stream, scratch)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d: stream round trip mismatch", i)
		}
	}
}

func TestMeshRoundTrip(t *testing.T) {
	msgs := []MeshMessage{
		{},
		{From: 0, To: 4, Kind: "sac/share", ShareIdx: 2, Payload: []float64{1.5, -2.25, math.Pi, 0}},
		{From: -1, To: -7, Kind: "", ShareIdx: -3, Payload: nil},
		{From: 3, To: 0, Kind: "sac/subtotal", ShareIdx: 3,
			Payload: []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}},
	}
	for i, m := range msgs {
		frame := AppendMeshFrame(nil, m)
		if want := HeaderSize + MeshPayloadSize(m.Kind, len(m.Payload)); len(frame) != want {
			t.Fatalf("msg %d: frame is %d bytes, MeshPayloadSize says %d", i, len(frame), want)
		}
		got, _, err := ReadMeshFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.From != m.From || got.To != m.To || got.Kind != m.Kind || got.ShareIdx != m.ShareIdx {
			t.Fatalf("msg %d: fields: got %+v want %+v", i, got, m)
		}
		if len(got.Payload) != len(m.Payload) {
			t.Fatalf("msg %d: payload length %d, want %d", i, len(got.Payload), len(m.Payload))
		}
		for j := range m.Payload {
			if math.Float64bits(got.Payload[j]) != math.Float64bits(m.Payload[j]) {
				t.Fatalf("msg %d: payload[%d] = %v, want %v (bit-exact)", i, j, got.Payload[j], m.Payload[j])
			}
		}
	}
}

// NaN payloads must survive bit-exactly — models never contain NaN in
// healthy runs, but the codec must not silently canonicalize payloads.
func TestFloat64sNaNBitPatterns(t *testing.T) {
	in := []float64{math.NaN(), math.Float64frombits(0x7FF8_0000_0000_0001)}
	out, rest, err := ReadFloat64s(AppendFloat64s(nil, in), nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("err=%v rest=%d", err, len(rest))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Fatalf("bit pattern %d: %x → %x", i, math.Float64bits(in[i]), math.Float64bits(out[i]))
		}
	}
}

func TestReadFloat64sReusesDst(t *testing.T) {
	frame := AppendFloat64s(nil, []float64{1, 2, 3})
	dst := make([]float64, 0, 8)
	out, _, err := ReadFloat64s(frame, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("ReadFloat64s did not reuse the caller's buffer")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cps := []Checkpoint{
		{},
		{Names: []string{"dense0/W", "dense0/b"}, Sizes: []int{128, 16},
			Weights: []float64{0.5, -0.25, 1e-9, 3}},
	}
	for i, cp := range cps {
		frame := AppendCheckpointFrame(nil, cp)
		if want := HeaderSize + CheckpointPayloadSize(cp); len(frame) != want {
			t.Fatalf("cp %d: frame is %d bytes, CheckpointPayloadSize says %d", i, len(frame), want)
		}
		got, err := ReadCheckpointFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("cp %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("cp %d: round trip\n got %+v\nwant %+v", i, got, cp)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := AppendHeader(nil, KindRaft, 0)
	cases := map[string]func([]byte) []byte{
		"short":        func(h []byte) []byte { return h[:HeaderSize-1] },
		"magic":        func(h []byte) []byte { h[0] = 'X'; return h },
		"version":      func(h []byte) []byte { h[4] = 99; return h },
		"reserved":     func(h []byte) []byte { h[6] = 1; return h },
		"huge payload": func(h []byte) []byte { h[8], h[9], h[10], h[11] = 0xFF, 0xFF, 0xFF, 0xFF; return h },
	}
	for name, mutate := range cases {
		h := append([]byte(nil), good...)
		if _, _, err := ParseHeader(mutate(h)); err == nil {
			t.Fatalf("%s: corrupt header accepted", name)
		}
	}
	if _, _, err := ParseHeader(good); err != nil {
		t.Fatalf("pristine header rejected: %v", err)
	}
}

// Truncating an encoded frame at every possible byte boundary must
// produce an error, never a panic or a silent partial decode.
func TestTruncationNeverPanics(t *testing.T) {
	m := sampleRaftMessages()[4]
	frame := AppendRaftFrame(nil, m)
	for cut := HeaderSize; cut < len(frame); cut++ {
		if _, err := DecodeRaftPayload(frame[HeaderSize:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mm := MeshMessage{From: 1, To: 2, Kind: "sac/share", ShareIdx: 0, Payload: []float64{1, 2}}
	mf := AppendMeshFrame(nil, mm)
	for cut := HeaderSize; cut < len(mf); cut++ {
		if _, err := DecodeMeshPayload(mf[HeaderSize:cut]); err == nil {
			t.Fatalf("mesh truncation at %d accepted", cut)
		}
	}
	cp := Checkpoint{Names: []string{"w"}, Sizes: []int{2}, Weights: []float64{1, 2}}
	cf := AppendCheckpointFrame(nil, cp)
	for cut := HeaderSize; cut < len(cf); cut++ {
		if _, err := DecodeCheckpointPayload(cf[HeaderSize:cut]); err == nil {
			t.Fatalf("checkpoint truncation at %d accepted", cut)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	frame := AppendRaftFrame(nil, raft.Message{Type: raft.MsgVoteRequest})
	if _, err := DecodeRaftPayload(append(frame[HeaderSize:], 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte: got %v, want ErrBadFrame", err)
	}
}

// A corrupt length prefix must not drive an absurd allocation: entry
// and parameter counts are validated against the remaining payload
// before any make().
func TestCorruptCountsRejectedBeforeAllocation(t *testing.T) {
	m := raft.Message{Type: raft.MsgAppend, Entries: []raft.Entry{{Index: 1, Term: 1}}}
	frame := AppendRaftFrame(nil, m)
	payload := append([]byte(nil), frame[HeaderSize:]...)
	// Entry count lives right after the fixed fields.
	off := raftFixedSize
	payload[off], payload[off+1], payload[off+2], payload[off+3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := DecodeRaftPayload(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("absurd entry count: got %v, want ErrTruncated", err)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B, make([]byte, 4096)...)
	b.Release()
	b2 := GetBuffer()
	defer b2.Release()
	if len(b2.B) != 0 {
		t.Fatal("pooled buffer not reset to empty")
	}
}

func TestFrameSizeFunctionsMatchEncoding(t *testing.T) {
	for _, m := range sampleRaftMessages() {
		if got, want := len(AppendRaftFrame(nil, m)), RaftFrameSize(m); got != want {
			t.Fatalf("raft frame size mismatch: %d vs %d", got, want)
		}
	}
}
