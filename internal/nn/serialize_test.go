package nn

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := MLP(8, []int{16}, 4, rng)
	b := MLP(8, []int{16}, 4, rand.New(rand.NewSource(2)))

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := randTensor(rng, 3, 8)
	ya, err := a.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(ya, yb, 1e-12) {
		t.Fatal("loaded model must match saved model")
	}
}

func TestLoadRejectsMismatchedArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := MLP(8, []int{16}, 4, rng)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Different hidden width.
	b := MLP(8, []int{32}, 4, rng)
	if err := b.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("want schema-mismatch error")
	}
	// Different depth.
	c := MLP(8, []int{16, 16}, 4, rng)
	if err := c.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("want param-count error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := MLP(2, nil, 2, rng)
	if err := m.Load(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("want decode error")
	}
}

// gobCheckpoint is what a build from before the wire codec wrote for
// checkpoint{Names: ["w"], Sizes: [1], Weights: [0.5]}: a complete
// encoding/gob stream, type preamble included.
const gobCheckpoint = "3bff8b0301010a636865636b706f696e7401ff8c00010301054e616d657301ff8e00010553697a657301ff90" +
	"0001075765696768747301ff9200000016ff8d020101085b5d737472696e6701ff8e00010c000013ff8f020101055b5d696e7401" +
	"ff90000104000017ff91020101095b5d666c6f6174363401ff9200010800000fff8c010101770101020101fee03f00"

// TestLoadRejectsForeignFormat: Load reads wire frames only. A stream
// in any other format fails loudly with wire.ErrBadMagic instead of
// being sniffed and decoded, and leaves the model untouched.
func TestLoadRejectsForeignFormat(t *testing.T) {
	m := MLP(2, nil, 2, rand.New(rand.NewSource(7)))
	before := m.WeightVector()
	stream, err := hex.DecodeString(gobCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(stream)); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("err = %v, want wire.ErrBadMagic", err)
	}
	for i, w := range m.WeightVector() {
		if w != before[i] {
			t.Fatal("a rejected load modified the model")
		}
	}
}

// TestAppendCheckpointMatchesSave pins the zero-alloc encode path to
// the Save format.
func TestAppendCheckpointMatchesSave(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := MLP(4, []int{8}, 2, rng)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	frame, weights := m.AppendCheckpoint(nil, nil)
	if !bytes.Equal(frame, buf.Bytes()) {
		t.Fatal("AppendCheckpoint bytes differ from Save")
	}
	// Reuse: same buffers, same bytes, no reallocation of the scratch.
	frame2, weights2 := m.AppendCheckpoint(frame[:0], weights)
	if !bytes.Equal(frame2, buf.Bytes()) {
		t.Fatal("reused AppendCheckpoint bytes differ")
	}
	if cap(weights2) != cap(weights) || &weights2[0] != &weights[0] {
		t.Fatal("AppendCheckpoint did not reuse the weights scratch")
	}
}

func TestSaveLoadCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := TinyCNN(1, 8, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TinyCNN(1, 8, 3, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	wa, wb := a.WeightVector(), b.WeightVector()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("CNN weights differ after load")
		}
	}
}
