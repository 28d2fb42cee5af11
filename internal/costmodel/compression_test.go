package costmodel_test

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/wire"
)

// TestBlockBytesMatchWireCodec cross-checks the dependency-free closed
// forms against the wire codec's own size functions.
func TestBlockBytesMatchWireCodec(t *testing.T) {
	for _, width := range []int{1, 2} {
		for _, dim := range []int{0, 1, 7, 1000, 1250858} {
			got, err := costmodel.QuantBlockBytes(width, dim)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(wire.QuantBlockSize(width, dim)); got != want {
				t.Fatalf("QuantBlockBytes(%d,%d) = %d, wire says %d", width, dim, got, want)
			}
		}
	}
	for _, width := range []int{0, 1, 2} {
		for _, k := range []int{0, 1, 100, 125085} {
			got, err := costmodel.SparseBlockBytes(width, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(wire.SparseBlockSize(width, k)); got != want {
				t.Fatalf("SparseBlockBytes(%d,%d) = %d, wire says %d", width, k, got, want)
			}
		}
	}
	if _, err := costmodel.QuantBlockBytes(3, 10); err == nil {
		t.Fatal("bad width accepted")
	}
	if _, err := costmodel.SparseBlockBytes(9, 10); err == nil {
		t.Fatal("bad sparse width accepted")
	}
}

// TestDistributionBytesMatchMeasured is the acceptance check: at
// N ∈ {5, 15, 45}, a full two-layer round's measured fedavg/* traffic
// equals DistributionBytes exactly — uncompressed and under every
// compression scheme (whose per-message unit is the compress closed
// form, itself pinned to the wire codec above).
func TestDistributionBytesMatchMeasured(t *testing.T) {
	const dim = 64
	for _, N := range []int{5, 15, 45} {
		m := (N + 4) / 5 // subgroups of ~5
		sizes, err := core.SplitPeers(N, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, cc := range []compress.Config{
			{},
			{Scheme: compress.Quant8},
			{Scheme: compress.Quant16},
			{Scheme: compress.TopKQuant8, Frac: 0.25},
		} {
			sys, err := core.NewSystem(core.Config{Sizes: sizes, Compression: cc}, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			models := make([][]float64, N)
			rng := rand.New(rand.NewSource(int64(N)))
			for i := range models {
				models[i] = make([]float64, dim)
				for j := range models[i] {
					models[i][j] = rng.NormFloat64()
				}
			}
			if _, err := sys.AggregateRound(models, core.RoundSpec{}); err != nil {
				t.Fatal(err)
			}
			measured := sys.Counter().Bytes(core.KindUpload) +
				sys.Counter().Bytes(core.KindDownload) +
				sys.Counter().Bytes(core.KindBroadcast)
			want, err := costmodel.DistributionBytes(sizes, cc.MessageBytes(dim))
			if err != nil {
				t.Fatal(err)
			}
			if measured != want {
				t.Fatalf("N=%d scheme=%v: measured distribution %dB, closed form %dB", N, cc.Scheme, measured, want)
			}
			msgs, err := costmodel.DistributionMessages(sizes)
			if err != nil {
				t.Fatal(err)
			}
			gotMsgs := sys.Counter().Messages(core.KindUpload) +
				sys.Counter().Messages(core.KindDownload) +
				sys.Counter().Messages(core.KindBroadcast)
			if gotMsgs != msgs {
				t.Fatalf("N=%d: %d distribution messages, closed form %d", N, gotMsgs, msgs)
			}
		}
	}
}
