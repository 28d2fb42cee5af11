package costmodel

import (
	"testing"

	"repro/internal/wire"
)

// The churn closed forms restate the wire codec's frame layouts; these
// tests cross-check them against the encoder's own exact sizes so the
// two can never drift apart silently.

func TestDirectoryUpdateBytesMatchWireCodec(t *testing.T) {
	for _, addr := range []string{"", "p:1", "peer-1234:7100", "a-much-longer-hostname.example.com:7100"} {
		want := wire.HeaderSize + wire.DirectoryPayloadSize(len(addr))
		got, err := DirectoryUpdateBytes(len(addr))
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(want) {
			t.Fatalf("DirectoryUpdateBytes(%d) = %d, wire frame is %d", len(addr), got, want)
		}
		// And against actually encoded bytes, not just the size helper.
		frame := wire.AppendDirectoryFrame(nil, wire.DirectoryUpdate{
			Op: wire.DirJoin, ID: 42, Subgroup: 1, ShareIndex: 2, Addr: addr,
		})
		if got != int64(len(frame)) {
			t.Fatalf("DirectoryUpdateBytes(%d) = %d, encoded frame is %d bytes", len(addr), got, len(frame))
		}
	}
	if _, err := DirectoryUpdateBytes(-1); err == nil {
		t.Fatal("want error for negative address length")
	}
}

func TestDirectoryChurnBytesClosedForm(t *testing.T) {
	// 3 joins and 2 leaves on a 5-member layer with 14-byte addresses:
	// 4 followers × (3·47 + 2·33) = 4 × 207 = 828.
	got, err := DirectoryChurnBytes(3, 2, 5, 14)
	if err != nil {
		t.Fatal(err)
	}
	if got != 828 {
		t.Fatalf("DirectoryChurnBytes = %d, want 828", got)
	}
	// A single-member layer replicates to nobody.
	if got, _ := DirectoryChurnBytes(10, 10, 1, 14); got != 0 {
		t.Fatalf("single-member layer cost %d, want 0", got)
	}
	for _, bad := range [][4]int{{-1, 0, 3, 4}, {0, -1, 3, 4}, {1, 1, 0, 4}, {1, 1, 3, -1}} {
		if _, err := DirectoryChurnBytes(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Fatalf("want error for %v", bad)
		}
	}
}

func TestHandoffModelBytesMatchWireCodec(t *testing.T) {
	for _, dim := range []int{0, 1, 5, 1024} {
		w := make([]float64, dim)
		want := wire.HeaderSize + wire.CheckpointPayloadSize(wire.Checkpoint{
			Names: []string{"model"}, Sizes: []int{dim}, Weights: w,
		})
		got, err := HandoffModelBytes(dim)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(want) {
			t.Fatalf("HandoffModelBytes(%d) = %d, wire frame is %d", dim, got, want)
		}
	}
	if _, err := HandoffModelBytes(-1); err == nil {
		t.Fatal("want error for negative dim")
	}
}
