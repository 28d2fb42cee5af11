package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Streaming-codec suite: the MeshEncoder/MeshDecoder pair must put and
// accept exactly the bytes of the buffered codec (AppendMeshFrame /
// DecodeMeshPayload), keep the hostile-frame allocation bound with and
// without a caller-supplied destination, and never hand back a partially
// filled destination as a message. Run under -race via make test-wire.

// sameBits reports whether two vectors are bit-identical (NaN payloads
// and signed zeros included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameMesh(a, b MeshMessage) bool {
	return a.From == b.From && a.To == b.To && a.ShareIdx == b.ShareIdx && a.Kind == b.Kind && sameBits(a.Payload, b.Payload)
}

// checkStreamAgrees is the differential oracle: on any byte string, the
// streaming decoder must accept exactly what header validation plus
// DecodeMeshPayload accept, and decode it to the same message.
func checkStreamAgrees(t *testing.T, data []byte) {
	t.Helper()
	got, _, gotErr := ReadMeshFrame(bytes.NewReader(data), nil)
	kind, n, err := ParseHeader(data)
	if err != nil || kind != KindMesh || n > len(data)-HeaderSize {
		if gotErr == nil {
			t.Fatalf("stream decoder accepted a frame the header check rejects (%v, kind %v, %d of %d payload bytes)",
				err, kind, len(data)-HeaderSize, n)
		}
		return
	}
	want, wantErr := DecodeMeshPayload(data[HeaderSize : HeaderSize+n])
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("stream decoder: %v, DecodeMeshPayload: %v\nframe % x", gotErr, wantErr, data[:min(len(data), 96)])
	}
	if wantErr == nil && !sameMesh(got, want) {
		t.Fatalf("stream decoder and DecodeMeshPayload disagree:\n got  %+v\n want %+v", got, want)
	}
}

// streamFrame encodes m with the streaming encoder into memory.
func streamFrame(t testing.TB, enc *MeshEncoder, m MeshMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := enc.WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamEncoderMatchesAppendMeshFrame(t *testing.T) {
	var enc MeshEncoder // one encoder across sizes: its head buffer is reused
	for _, dim := range []int{0, 1, 5, stageWords - 1, stageWords, stageWords + 1, 3*stageWords + 7} {
		m := MeshMessage{From: -3, To: 1 << 40, Kind: "sac/share", ShareIdx: dim, Payload: make([]float64, dim)}
		for i := range m.Payload {
			m.Payload[i] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(i)*0x9e3779b97f4a7c15)
		}
		want := AppendMeshFrame(nil, m)
		if got := streamFrame(t, &enc, m); !bytes.Equal(got, want) {
			t.Fatalf("dim %d: streamed frame differs from AppendMeshFrame", dim)
		}
		if len(want) != HeaderSize+MeshPayloadSize(m.Kind, dim) {
			t.Fatalf("dim %d: frame is %d bytes, MeshPayloadSize says %d", dim, len(want), HeaderSize+MeshPayloadSize(m.Kind, dim))
		}
		checkStreamAgrees(t, want)
	}
}

// TestStreamHonestModelFrameRoundTrips moves one paper-CNN-sized vector
// (1,250,858 weights, 10 MB) through encoder and decoder, into a
// caller-supplied destination and into one the decoder grows itself.
func TestStreamHonestModelFrameRoundTrips(t *testing.T) {
	const dim = 1_250_858
	m := MeshMessage{From: 2, To: 0, Kind: "sac/subtotal", ShareIdx: 1, Payload: make([]float64, dim)}
	for i := range m.Payload {
		m.Payload[i] = float64(i)*1e-3 - 600
	}
	frame := streamFrame(t, new(MeshEncoder), m)
	if len(frame) != HeaderSize+MeshPayloadSize(m.Kind, dim) {
		t.Fatalf("frame is %d bytes, want %d", len(frame), HeaderSize+MeshPayloadSize(m.Kind, dim))
	}
	pooled := make([]float64, dim+100)
	var dec MeshDecoder
	for pass, vec := range []func(int) []float64{nil, func(int) []float64 { return pooled }, nil} {
		got, err := dec.ReadFrame(bytes.NewReader(frame), vec)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !sameMesh(got, m) {
			t.Fatalf("pass %d: 10 MB frame did not round-trip", pass)
		}
		if vec != nil && &got.Payload[0] != &pooled[0] {
			t.Fatalf("pass %d: decoder ignored the supplied destination", pass)
		}
		if cap(got.Payload) > len(pooled) {
			t.Fatalf("pass %d: destination over-allocated: cap %d for %d floats", pass, cap(got.Payload), dim)
		}
	}
}

// TestStreamEveryTruncationReturnsTheDestination streams every strict
// prefix of a frame into a caller-supplied destination: all must error,
// and a destination the decoder took must come back (length zero) rather
// than be delivered.
func TestStreamEveryTruncationReturnsTheDestination(t *testing.T) {
	frame := hostileSamples()["mesh"]
	for i := 0; i < len(frame); i++ {
		pooled := make([]float64, 8)
		asked := false
		var dec MeshDecoder
		m, err := dec.ReadFrame(bytes.NewReader(frame[:i]), func(int) []float64 { asked = true; return pooled })
		if err == nil {
			t.Fatalf("%d-byte prefix of %d-byte frame accepted", i, len(frame))
		}
		if len(m.Payload) != 0 {
			t.Fatalf("%d-byte prefix delivered a %d-element payload", i, len(m.Payload))
		}
		if asked && (cap(m.Payload) == 0 || &m.Payload[:1][0] != &pooled[0]) {
			t.Fatalf("%d-byte prefix: destination was taken and not returned", i)
		}
	}
}

// TestStreamBitFlipSweepAgrees flips every bit of a valid mesh frame:
// no panic, and accept/reject plus the decoded value match the buffered
// decoder on every mutant.
func TestStreamBitFlipSweepAgrees(t *testing.T) {
	frame := hostileSamples()["mesh"]
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), frame...)
			mutated[i] ^= 1 << bit
			checkStreamAgrees(t, mutated)
		}
	}
}

// meshClaim builds a mesh frame whose header and envelope consistently
// announce count floats but which carries only the given words.
func meshClaim(kind string, count uint32, words []float64) []byte {
	b := AppendHeader(nil, KindMesh, 0)
	binary.LittleEndian.PutUint32(b[8:12], uint32(MeshPayloadSize(kind, 0))+8*count)
	b = appendMeshEnvelope(b, MeshMessage{From: 1, To: 2, Kind: kind})
	b = appendUint32(b, count)
	return appendWords(b, words)
}

// TestStreamHeaderEnvelopeDisagreement forges the two length fields
// against each other in both directions. The decoder must reject before
// touching the vector: the destination callback is never consulted.
func TestStreamHeaderEnvelopeDisagreement(t *testing.T) {
	honest := AppendMeshFrame(nil, MeshMessage{From: 1, To: 2, Kind: "k", Payload: []float64{1, 2, 3, 4}})
	truth := binary.LittleEndian.Uint32(honest[8:12])
	countAt := HeaderSize + meshFixedSize + 1
	for name, forge := range map[string]func(b []byte){
		"header-short":   func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], truth-8) },
		"header-long":    func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], truth+8) },
		"header-huge":    func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], MaxPayload) },
		"header-tiny":    func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], meshFixedSize) },
		"count-short":    func(b []byte) { binary.LittleEndian.PutUint32(b[countAt:], 3) },
		"count-long":     func(b []byte) { binary.LittleEndian.PutUint32(b[countAt:], 5) },
		"count-huge":     func(b []byte) { binary.LittleEndian.PutUint32(b[countAt:], math.MaxUint32) },
		"kind-len-huge":  func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderSize+24:], 1<<30) },
		"kind-len-short": func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderSize+24:], 0) },
	} {
		b := append(append([]byte(nil), honest...), make([]byte, 64)...) // spare bytes: only the lengths lie
		forge(b)
		var dec MeshDecoder
		m, err := dec.ReadFrame(bytes.NewReader(b), func(n int) []float64 {
			t.Errorf("%s: decoder asked for a %d-float destination before rejecting", name, n)
			return nil
		})
		if err == nil {
			t.Fatalf("%s: accepted as %+v", name, m)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: %v is neither ErrTruncated nor ErrBadFrame", name, err)
		}
		checkStreamAgrees(t, b)
	}
}

// TestStreamLyingVectorBoundsAllocation is the hostile-frame bound of
// the streaming path. Header and envelope agree on a 1 GiB vector; the
// stream then starves. Without a destination the decoder may hold at
// most framePrealloc, or twice what genuinely arrived; a decoder that
// has already delivered an honest vector may pre-size to that, no more;
// a caller-supplied destination is filled in place and handed back.
func TestStreamLyingVectorBoundsAllocation(t *testing.T) {
	const huge = (MaxPayload - 64) / 8
	for _, delivered := range []int{0, 7, stageWords, 25_000, 200_000} {
		lie := meshClaim("sac/share", huge, make([]float64, delivered))
		var dec MeshDecoder
		m, err := dec.ReadFrame(bytes.NewReader(lie), nil)
		if err == nil {
			t.Fatalf("%d words delivered: starved frame accepted", delivered)
		}
		if limit := max(framePrealloc, 2*8*delivered); 8*cap(m.Payload) > limit || len(m.Payload) != 0 {
			t.Fatalf("%d words delivered: decoder held %d bytes (len %d), bound %d", delivered, 8*cap(m.Payload), len(m.Payload), limit)
		}
	}

	// Pre-sizing follows what the stream has proven, not what it claims.
	var dec MeshDecoder
	const honest = 5 * stageWords
	frame := AppendMeshFrame(nil, MeshMessage{Kind: "sac/share", Payload: make([]float64, honest)})
	stream := io.MultiReader(bytes.NewReader(frame), bytes.NewReader(meshClaim("sac/share", huge, make([]float64, 10))))
	if m, err := dec.ReadFrame(stream, nil); err != nil || len(m.Payload) != honest {
		t.Fatalf("honest frame: %v", err)
	}
	m, err := dec.ReadFrame(stream, nil)
	if err == nil {
		t.Fatal("starved second frame accepted")
	}
	if cap(m.Payload) > honest {
		t.Fatalf("second frame pre-sized to %d floats; the stream only ever delivered %d", cap(m.Payload), honest)
	}

	// A supplied destination is already paid for: filled directly, no
	// growth, and returned on the short read.
	pooled := make([]float64, huge/1024)
	lie := meshClaim("sac/share", uint32(len(pooled)), make([]float64, 1000))
	allocs := testing.AllocsPerRun(10, func() {
		m, err = new(MeshDecoder).ReadFrame(bytes.NewReader(lie), func(int) []float64 { return pooled })
	})
	if err == nil || len(m.Payload) != 0 || &m.Payload[:1][0] != &pooled[0] {
		t.Fatalf("short read into a supplied destination: err %v, payload len %d", err, len(m.Payload))
	}
	if allocs > 8 {
		t.Fatalf("short read into a supplied destination allocates %v times", allocs)
	}
}

// TestPortableKernelsMatchGoldens forces the word-by-word conversion
// path the codec uses on big-endian hosts and replays the golden-file
// and streaming checks through it: same bytes out, same values in.
func TestPortableKernelsMatchGoldens(t *testing.T) {
	if *updateGolden {
		t.Skip("updating goldens")
	}
	defer func(v bool) { nativeLE = v }(nativeLE)
	nativeLE = false
	t.Run("goldens", TestGoldenWireFiles)
	t.Run("golden-values", TestGoldenDecodeValues)
	t.Run("encoder", TestStreamEncoderMatchesAppendMeshFrame)
	t.Run("truncation", TestStreamEveryTruncationReturnsTheDestination)
	t.Run("bit-flips", TestStreamBitFlipSweepAgrees)
	t.Run("allocation-bound", TestStreamLyingVectorBoundsAllocation)

	golden, err := os.ReadFile(filepath.Join("testdata", "mesh_share_v1.wire"))
	if err != nil {
		t.Fatal(err)
	}
	want := MeshMessage{From: 0, To: 4, Kind: "sac/share", ShareIdx: 2,
		Payload: []float64{1.0, -0.5, 0.25, 1e-12, 3.14159265358979}}
	if got := streamFrame(t, new(MeshEncoder), want); !bytes.Equal(got, golden) {
		t.Fatalf("portable encoder drifted from the golden mesh frame:\n got  % x\n want % x", got, golden)
	}
	got, _, err := ReadMeshFrame(bytes.NewReader(golden), nil)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("portable decoder read the golden mesh frame as %+v (%v)", got, err)
	}
}

// FuzzMeshStreamDifferential holds the two mesh codecs together on
// arbitrary input: the streaming decoder accepts exactly what the
// buffered one accepts, and whatever decodes re-encodes to identical
// bytes through AppendMeshFrame and through the streaming encoder.
func FuzzMeshStreamDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendMeshFrame(nil, MeshMessage{From: 1, To: 2, Kind: "sac/share", ShareIdx: 1, Payload: []float64{1, 2}}))
	f.Add(AppendMeshFrame(nil, MeshMessage{Kind: "", Payload: nil}))
	f.Add(meshClaim("k", 9, []float64{1, 2, 3}))
	f.Add(retiredDeltaFrame(KindDeltaQuant, MeshMessage{From: 1, To: 2, Kind: "fedavg/download"},
		appendQuantBlock(nil, QuantDelta{Width: 1, Scale: 0.5, Q: []int16{1, -2, 3}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamAgrees(t, data)
		m, _, err := ReadMeshFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		buffered := AppendMeshFrame(nil, m)
		if streamed := streamFrame(t, new(MeshEncoder), m); !bytes.Equal(streamed, buffered) {
			t.Fatalf("encoders disagree:\n stream % x\n append % x", streamed, buffered)
		}
		if !bytes.Equal(buffered, data[:len(buffered)]) {
			t.Fatalf("decode→re-encode is not byte-identical")
		}
	})
}
