package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// retiredDeltaFrame lays a block out the way the retired kind-4/5
// frames did — header, mesh envelope, block. The goldens and the fuzz
// corpus are such frames (and the TCP mesh regression sends one), so the
// bytes of the blocks inside them stay pinned; nothing outside the tests
// builds or parses the wrapping any more.
func retiredDeltaFrame(kind Kind, m MeshMessage, block []byte) []byte {
	dst := AppendHeader(nil, kind, meshFixedSize+len(m.Kind)+len(block))
	return append(appendMeshEnvelope(dst, m), block...)
}

// deltaBlock returns the block inside a retired delta frame's payload.
func deltaBlock(payload []byte) ([]byte, error) {
	if len(payload) < meshFixedSize {
		return nil, ErrTruncated
	}
	_, rest, err := readString(payload[meshFixedSize-4:])
	return rest, err
}

func TestQuantFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    QuantDelta
	}{
		{"int8", QuantDelta{Width: 1, Scale: 0.25, Q: []int16{127, -128, 0, 1, -1}}},
		{"int16", QuantDelta{Width: 2, Scale: 1e-4, Q: []int16{32767, -32768, 0, 999}}},
		{"empty8", QuantDelta{Width: 1, Scale: 0, Q: nil}},
		{"empty16", QuantDelta{Width: 2, Scale: 0, Q: nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			block := appendQuantBlock(nil, tc.q)
			if got, want := len(block), QuantBlockSize(tc.q.Width, len(tc.q.Q)); got != want {
				t.Fatalf("block is %d bytes, QuantBlockSize says %d", got, want)
			}
			gotQ, rest, err := readQuantBlock(block)
			if err != nil || len(rest) != 0 {
				t.Fatalf("readQuantBlock: err %v, %d bytes left", err, len(rest))
			}
			if gotQ.Width != tc.q.Width || gotQ.Scale != tc.q.Scale || len(gotQ.Q) != len(tc.q.Q) {
				t.Fatalf("block: got %+v want %+v", gotQ, tc.q)
			}
			for i := range tc.q.Q {
				if gotQ.Q[i] != tc.q.Q[i] {
					t.Fatalf("Q[%d] = %d, want %d", i, gotQ.Q[i], tc.q.Q[i])
				}
			}
		})
	}
}

func TestSparseFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    SparseDelta
	}{
		{"float64", SparseDelta{Dim: 10, Idx: []int32{0, 4, 9}, Width: 0, Vals: []float64{1.5, -2.5, 1e-300}}},
		{"int8", SparseDelta{Dim: 10, Idx: []int32{3, 7}, Width: 1, Scale: 0.5, Q: []int16{-128, 127}}},
		{"int16", SparseDelta{Dim: 100, Idx: []int32{99}, Width: 2, Scale: 0.125, Q: []int16{-32768}}},
		{"empty", SparseDelta{Dim: 10, Width: 0}},
		{"empty-dim0", SparseDelta{Dim: 0, Width: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			block := appendSparseBlock(nil, tc.s)
			if got, want := len(block), SparseBlockSize(tc.s.Width, len(tc.s.Idx)); got != want {
				t.Fatalf("block is %d bytes, SparseBlockSize says %d", got, want)
			}
			gotS, rest, err := readSparseBlock(block)
			if err != nil || len(rest) != 0 {
				t.Fatalf("readSparseBlock: err %v, %d bytes left", err, len(rest))
			}
			if gotS.Dim != tc.s.Dim || gotS.Width != tc.s.Width || gotS.Scale != tc.s.Scale {
				t.Fatalf("block header: got %+v want %+v", gotS, tc.s)
			}
			if len(gotS.Idx) != len(tc.s.Idx) {
				t.Fatalf("got %d indices, want %d", len(gotS.Idx), len(tc.s.Idx))
			}
			for i := range tc.s.Idx {
				if gotS.Idx[i] != tc.s.Idx[i] {
					t.Fatalf("Idx[%d] = %d, want %d", i, gotS.Idx[i], tc.s.Idx[i])
				}
			}
			for i := range tc.s.Vals {
				if math.Float64bits(gotS.Vals[i]) != math.Float64bits(tc.s.Vals[i]) {
					t.Fatalf("Vals[%d] not bit-exact", i)
				}
			}
			for i := range tc.s.Q {
				if gotS.Q[i] != tc.s.Q[i] {
					t.Fatalf("Q[%d] = %d, want %d", i, gotS.Q[i], tc.s.Q[i])
				}
			}
		})
	}
}

func TestQuantCheckpointRoundTrip(t *testing.T) {
	cp := QuantCheckpoint{
		Names: []string{"conv0/W", "conv0/b"},
		Sizes: []int{4, 2},
		Delta: QuantDelta{Width: 1, Scale: 0.03125, Q: []int16{1, -2, 3, -4, 5, -6}},
	}
	frame := AppendQuantCheckpointFrame(nil, cp)
	if got, want := len(frame), QuantCheckpointFrameSize(cp); got != want {
		t.Fatalf("frame is %d bytes, QuantCheckpointFrameSize says %d", got, want)
	}
	got, err := DecodeQuantCheckpointPayload(frame[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip: got %+v want %+v", got, cp)
	}
}

// TestDeltaStrictDecoding drives every malformed-block shape through the
// block readers: each must fail with a wire sentinel, never panic or
// accept. A reader consumes exactly its block, so bytes after a
// well-formed one come back to the caller, who owns the layout around it.
func TestDeltaStrictDecoding(t *testing.T) {
	quant := appendQuantBlock(nil, QuantDelta{Width: 1, Scale: 0.5, Q: []int16{1, 2, 3}})
	sparse := appendSparseBlock(nil, SparseDelta{Dim: 8, Idx: []int32{2, 5}, Width: 0, Vals: []float64{1, 2}})

	mutate := func(block []byte, off int, v byte) []byte {
		out := append([]byte(nil), block...)
		out[off] = v
		return out
	}
	read := func(name string, b []byte) ([]byte, error) {
		if strings.HasPrefix(name, "quant") {
			_, rest, err := readQuantBlock(b)
			return rest, err
		}
		_, rest, err := readSparseBlock(b)
		return rest, err
	}
	cases := []struct {
		name  string
		block []byte
		want  error
	}{
		{"quant-bad-width", mutate(quant, 0, 3), ErrBadFrame},
		{"quant-width-zero", mutate(quant, 0, 0), ErrBadFrame},
		{"quant-truncated-values", quant[:len(quant)-1], ErrTruncated},
		{"quant-trailing", append(append([]byte(nil), quant...), 0), nil},
		{"quant-empty", nil, ErrTruncated},
		{"sparse-bad-width", mutate(sparse, 8, 9), ErrBadFrame},
		{"sparse-truncated", sparse[:len(sparse)-3], ErrTruncated},
		{"sparse-trailing", append(append([]byte(nil), sparse...), 0), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rest, err := read(tc.name, tc.block)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if tc.want == nil && len(rest) != 1 {
				t.Fatalf("reader left %d bytes, want the 1 after the block", len(rest))
			}
		})
	}

	for name, bad := range map[string]SparseDelta{
		// appendSparseBlock writes whatever it is given, k > dim included.
		"sparse-count-exceeds-dim":     {Dim: 2, Idx: []int32{0, 1, 1}, Width: 0, Vals: []float64{1, 2, 3}},
		"sparse-index-out-of-range":    {Dim: 4, Idx: []int32{1, 4}, Width: 0, Vals: []float64{1, 2}},
		"sparse-indices-not-ascending": {Dim: 8, Idx: []int32{5, 2}, Width: 0, Vals: []float64{1, 2}},
		"sparse-indices-duplicate":     {Dim: 8, Idx: []int32{3, 3}, Width: 0, Vals: []float64{1, 2}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := readSparseBlock(appendSparseBlock(nil, bad)); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("got %v, want ErrBadFrame", err)
			}
		})
	}
	t.Run("quant-count-lies", func(t *testing.T) {
		// Claim 2^31 int8 values in a 3-byte tail: the count guard must
		// reject before allocating.
		p := []byte{1}                    // width
		p = append(p, make([]byte, 8)...) // scale
		p = appendUint32(p, 1<<31-1)      // count
		p = append(p, 1, 2, 3)            // only 3 bytes of values
		if _, _, err := readQuantBlock(p); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

func TestDeltaDense(t *testing.T) {
	s := SparseDelta{Dim: 6, Idx: []int32{1, 4}, Width: 0, Vals: []float64{2.5, -1.5}}
	gotS := s.Dense(nil)
	wantS := []float64{0, 2.5, 0, 0, -1.5, 0}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("sparse Dense = %v, want %v", gotS, wantS)
	}
	// Reused dst must be zeroed where coordinates were dropped.
	dirty := []float64{9, 9, 9, 9, 9, 9}
	gotS = s.Dense(dirty)
	if !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("sparse Dense over dirty dst = %v, want %v", gotS, wantS)
	}

	sq := SparseDelta{Dim: 4, Idx: []int32{0, 3}, Width: 2, Scale: 0.25, Q: []int16{-8, 12}}
	gotQ := sq.Dense(nil)
	wantQ := []float64{-2, 0, 0, 3}
	if !reflect.DeepEqual(gotQ, wantQ) {
		t.Fatalf("sparse quant Dense = %v, want %v", gotQ, wantQ)
	}
}

func TestKindStringAndDebugHeader(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRaft: "raft", KindMesh: "mesh", KindCheckpoint: "checkpoint",
		KindDeltaQuant: "delta-quant", KindDeltaSparse: "delta-sparse",
		KindCheckpointQuant: "checkpoint-quant", Kind(0xAB): "kind(0xab)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", byte(k), got, want)
		}
	}
}

// TestQuantSizeAdvantage pins the acceptance-criterion ratio in closed
// form: an int8 block is ≤ 0.25× the float64 mesh frame at model
// dimensions.
func TestQuantSizeAdvantage(t *testing.T) {
	for _, dim := range []int{1000, 100000} {
		f64 := HeaderSize + MeshPayloadSize("fedavg/download", dim)
		q8 := QuantBlockSize(1, dim)
		if 4*q8 > f64 {
			t.Errorf("dim %d: int8 block %dB > 0.25× float64 frame %dB", dim, q8, f64)
		}
	}
}
