package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/sac"
	"repro/internal/transport"
)

// foldLine renders what a round left behind as one comparable line: an
// FNV-1a digest of the global model's bits, the round's bytes, and the
// counter's cumulative bytes/messages per kind.
func foldLine(global []float64, bytes int64, c *transport.Counter) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range global {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	var kinds []string
	for _, k := range c.Kinds() {
		kinds = append(kinds, fmt.Sprintf("%s=%d/%d", k, c.Bytes(k), c.Messages(k)))
	}
	return fmt.Sprintf("%016x %d %s", h.Sum64(), bytes, strings.Join(kinds, " "))
}

// foldStep is one round of a pinned run, optionally preceded by a
// Reconfigure.
type foldStep struct {
	sizes, k []int
	crash    map[int]sac.CrashPlan
	want     string
}

// TestFoldedEntryPointsReplayParentRounds replays, at fixed seeds, rounds
// that the parent commit ran through the deleted shims — System.Aggregate
// (= AggregateRound with FedLeader −1) and AggregateMultiLayer (=
// AggregateMultiLayerOpts with zero options) — through their replacements
// and pins every line the parent printed. The systems run on borrowed SAC
// working sets now, so the shapes are chosen to make that visible: uneven
// subgroups, a recovery round, a third shape for the secure upper layer,
// and a system that grows and shrinks between rounds.
func TestFoldedEntryPointsReplayParentRounds(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		steps []foldStep
	}{
		{"uneven", Config{Sizes: []int{3, 3, 4}}, []foldStep{
			{want: "754c0796f6f51676 8064 fedavg/broadcast=1344/7 fedavg/download=384/2 fedavg/upload=384/2 sac/share=4608/24 sac/subtotal=1344/7"},
			{want: "57987acdee2c012b 8064 fedavg/broadcast=2688/14 fedavg/download=768/4 fedavg/upload=768/4 sac/share=9216/48 sac/subtotal=2688/14"},
		}},
		{"k-of-n crash", Config{Sizes: []int{3, 3, 3}, K: []int{2}}, []foldStep{
			{crash: map[int]sac.CrashPlan{1: {2: sac.AfterShares}},
				want: "822c52c54749323e 9416 fedavg/broadcast=1152/6 fedavg/download=384/2 fedavg/upload=384/2 sac/recovery=192/1 sac/recovery-req=8/1 sac/share=6912/36 sac/subtotal=384/2"},
			{want: "8a646d7be2398238 9408 fedavg/broadcast=2304/12 fedavg/download=768/4 fedavg/upload=768/4 sac/recovery=192/1 sac/recovery-req=8/1 sac/share=13824/72 sac/subtotal=960/5"},
		}},
		{"fraction", Config{Sizes: []int{3, 3, 3, 3}, Fraction: 0.5}, []foldStep{
			{want: "53bc79d5fcc7c92e 8448 fedavg/broadcast=1536/8 fedavg/download=576/3 fedavg/upload=192/1 sac/share=4608/24 sac/subtotal=1536/8"},
			{want: "f94ec08f96ae79a0 8448 fedavg/broadcast=3072/16 fedavg/download=1152/6 fedavg/upload=384/2 sac/share=9216/48 sac/subtotal=3072/16"},
		}},
		{"secure upper", Config{Sizes: []int{3, 3, 4}, SecureUpper: true}, []foldStep{
			{want: "6b30969b6c1cdb3f 9216 fedavg/broadcast=1344/7 fedavg/download=384/2 sac/share=5760/30 sac/subtotal=1728/9"},
			{want: "f13243a9de6bb773 9216 fedavg/broadcast=2688/14 fedavg/download=768/4 sac/share=11520/60 sac/subtotal=3456/18"},
		}},
		{"compression", Config{Sizes: []int{3, 3, 4}, Fraction: 0.67, Compression: compress.Config{Scheme: compress.TopKQuant8, Frac: 0.25}}, []foldStep{
			{want: "a3df7a2ab01401c6 6422 fedavg/broadcast=329/7 fedavg/download=94/2 fedavg/upload=47/1 sac/share=4608/24 sac/subtotal=1344/7"},
			{want: "1d828af661b5655d 6422 fedavg/broadcast=658/14 fedavg/download=188/4 fedavg/upload=94/2 sac/share=9216/48 sac/subtotal=2688/14"},
		}},
		{"reconfigure", Config{Sizes: []int{3, 3}, K: []int{2}}, []foldStep{
			{want: "378a1c2aa4e12ce1 6144 fedavg/broadcast=768/4 fedavg/download=192/1 fedavg/upload=192/1 sac/share=4608/24 sac/subtotal=384/2"},
			{sizes: []int{4, 3, 5}, k: []int{3, 2, 3},
				want: "1dc69213f755c4d0 21888 fedavg/broadcast=2496/13 fedavg/download=576/3 fedavg/upload=576/3 sac/share=23040/120 sac/subtotal=1344/7"},
			{sizes: []int{5},
				want: "6c5e1cf8f58bef48 5376 fedavg/broadcast=3264/17 fedavg/download=576/3 fedavg/upload=576/3 sac/share=26880/140 sac/subtotal=2112/11"},
			{sizes: []int{3, 3}, k: []int{2},
				want: "0faf524b86d852a0 6144 fedavg/broadcast=4032/21 fedavg/download=768/4 fedavg/upload=768/4 sac/share=31488/164 sac/subtotal=2496/13"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.cfg, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(42))
			for round, st := range tc.steps {
				if st.sizes != nil {
					if err := sys.Reconfigure(st.sizes, st.k); err != nil {
						t.Fatal(err)
					}
				}
				cfg := sys.cfg
				n := cfg.NumPeers()
				counts := make([]float64, n)
				for i := range counts {
					counts[i] = float64(1 + i%3)
				}
				res, err := sys.AggregateRound(randModels(r, n, 24), RoundSpec{SampleCounts: counts, Crash: st.crash, FedLeader: -1})
				if err != nil {
					t.Fatal(err)
				}
				if got := foldLine(res.Global, res.Bytes, sys.Counter()); got != st.want {
					t.Errorf("round %d:\n got  %s\n want %s", round, got, st.want)
				}
			}
		})
	}

	t.Run("tree", func(t *testing.T) {
		topo, err := BuildMultiLayerTopology(3, 3)
		if err != nil {
			t.Fatal(err)
		}
		counter := transport.NewCounter()
		rng, r := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(42))
		for round, want := range []string{
			"c8e6d01b7276a83c 19200 fedavg/broadcast=3840/20 sac/share=11520/60 sac/subtotal=3840/20",
			"47aecbf52ad2e99e 19200 fedavg/broadcast=7680/40 sac/share=23040/120 sac/subtotal=7680/40",
		} {
			res, err := AggregateMultiLayerOpts(topo, randModels(r, topo.N, 24), nil, rng, counter, MultiLayerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := foldLine(res.Global, res.Bytes, counter); got != want {
				t.Errorf("round %d:\n got  %s\n want %s", round, got, want)
			}
		}
	})
}

// SecureUpper averages by SAC; an Aggregator beside it used to be
// silently ignored.
func TestSecureUpperRejectsAggregator(t *testing.T) {
	_, err := NewSystem(Config{Sizes: []int{3, 3}, SecureUpper: true, Aggregator: fl.CoordinateMedian{}}, nil)
	if err == nil {
		t.Fatal("SecureUpper with an Aggregator was accepted")
	}
}
