package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/sac"
	"repro/internal/telemetry"
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

// roundLine is foldLine for a two-layer round, followed by what else the
// round reported — who participated or was convicted, which
// peers the range guard excluded, the bits of the compressed global's
// error bound — and the cumulative round/* and sac/* counters of reg.
func roundLine(res *RoundResult, c *transport.Counter, reg *telemetry.Registry) string {
	var bound uint64
	if res.GlobalBound != nil {
		bound = math.Float64bits(res.GlobalBound.MaxCoordErr)
	}
	excluded := make([]string, 0, len(res.ExcludedPeers))
	for g := range res.SubgroupAvgs {
		if peers, ok := res.ExcludedPeers[g]; ok {
			excluded = append(excluded, fmt.Sprintf("%d:%v", g, peers))
		}
	}
	snap := reg.Snapshot()
	var counters []string
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "round/") || strings.HasPrefix(name, "sac/") {
			counters = append(counters, fmt.Sprintf("%s=%d", name, v))
		}
	}
	sort.Strings(counters)
	return fmt.Sprintf("%s | p%v b%v x%v e%016x | %s", foldLine(res.Global, res.Bytes, c),
		res.Participated, res.ByzantineExcluded, excluded, bound, strings.Join(counters, " "))
}

// foldStep is one round of a pinned run, optionally preceded by a
// Reconfigure. spec is the round's RoundSpec but for SampleCounts; a step
// that names no Leaders runs with FedLeader −1, as System.Aggregate did.
type foldStep struct {
	sizes, k []int
	spec     RoundSpec
	want     string
}

// TestFoldedEntryPointsReplayParentRounds replays, at fixed seeds, rounds
// that the parent commit ran through the deleted shims — System.Aggregate
// (= AggregateRound with FedLeader −1) and AggregateMultiLayer (=
// AggregateMultiLayerOpts with zero options) — through their replacements
// and pins every line the parent printed. The systems run on borrowed SAC
// working sets now, so the shapes are chosen to make that visible: uneven
// subgroups, a recovery round, a third shape for the secure upper layer,
// and a system that grows and shrinks between rounds. The secure-upper
// rows with set leaders or crashes and the baseline lines were taken
// before the round node held its SAC peers; the one line that moved with
// that change says why beside it.
func TestFoldedEntryPointsReplayParentRounds(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		steps []foldStep
	}{
		{"uneven", Config{Sizes: []int{3, 3, 4}}, []foldStep{
			{want: "754c0796f6f51676 8064 fedavg/broadcast=1344/7 fedavg/download=384/2 fedavg/upload=384/2 sac/share=4608/24 sac/subtotal=1344/7 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=3 sac/rounds_started=3 sac/shares_sent=24 sac/subtotals_recovered=0 sac/subtotals_sent=7"},
			{want: "57987acdee2c012b 8064 fedavg/broadcast=2688/14 fedavg/download=768/4 fedavg/upload=768/4 sac/share=9216/48 sac/subtotal=2688/14 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=48 sac/subtotals_recovered=0 sac/subtotals_sent=14"},
		}},
		{"k-of-n crash", Config{Sizes: []int{3, 3, 3}, K: []int{2}}, []foldStep{
			{spec: RoundSpec{Crash: map[int]sac.CrashPlan{1: {2: sac.AfterShares}}},
				want: "822c52c54749323e 9416 fedavg/broadcast=1152/6 fedavg/download=384/2 fedavg/upload=384/2 sac/recovery=192/1 sac/recovery-req=8/1 sac/share=6912/36 sac/subtotal=384/2 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=1 sac/rounds_failed=0 sac/rounds_ok=3 sac/rounds_started=3 sac/shares_sent=36 sac/subtotals_recovered=1 sac/subtotals_sent=2"},
			{want: "8a646d7be2398238 9408 fedavg/broadcast=2304/12 fedavg/download=768/4 fedavg/upload=768/4 sac/recovery=192/1 sac/recovery-req=8/1 sac/share=13824/72 sac/subtotal=960/5 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=1 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=72 sac/subtotals_recovered=1 sac/subtotals_sent=5"},
		}},
		{"fraction", Config{Sizes: []int{3, 3, 3, 3}, Fraction: 0.5}, []foldStep{
			{want: "53bc79d5fcc7c92e 8448 fedavg/broadcast=1536/8 fedavg/download=576/3 fedavg/upload=192/1 sac/share=4608/24 sac/subtotal=1536/8 | p[3 0] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=2 round/subgroups_ok=4 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=4 sac/rounds_started=4 sac/shares_sent=24 sac/subtotals_recovered=0 sac/subtotals_sent=8"},
			{want: "f94ec08f96ae79a0 8448 fedavg/broadcast=3072/16 fedavg/download=1152/6 fedavg/upload=384/2 sac/share=9216/48 sac/subtotal=3072/16 | p[3 1] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=4 round/subgroups_ok=8 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=8 sac/rounds_started=8 sac/shares_sent=48 sac/subtotals_recovered=0 sac/subtotals_sent=16"},
		}},
		{"secure upper", Config{Sizes: []int{3, 3, 4}, SecureUpper: true}, []foldStep{
			{want: "6b30969b6c1cdb3f 9216 fedavg/broadcast=1344/7 fedavg/download=384/2 sac/share=5760/30 sac/subtotal=1728/9 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=4 sac/rounds_started=4 sac/shares_sent=30 sac/subtotals_recovered=0 sac/subtotals_sent=9"},
			{want: "f13243a9de6bb773 9216 fedavg/broadcast=2688/14 fedavg/download=768/4 sac/share=11520/60 sac/subtotal=3456/18 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=8 sac/rounds_started=8 sac/shares_sent=60 sac/subtotals_recovered=0 sac/subtotals_sent=18"},
		}},
		{"compression", Config{Sizes: []int{3, 3, 4}, Fraction: 0.67, Compression: compress.Config{Scheme: compress.TopKQuant8, Frac: 0.25}}, []foldStep{
			{want: "a3df7a2ab01401c6 6422 fedavg/broadcast=329/7 fedavg/download=94/2 fedavg/upload=47/1 sac/share=4608/24 sac/subtotal=1344/7 | p[0 1] b[] x[] e3fd4c8cb2816862a | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=1 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=3 sac/rounds_started=3 sac/shares_sent=24 sac/subtotals_recovered=0 sac/subtotals_sent=7"},
			{want: "1d828af661b5655d 6422 fedavg/broadcast=658/14 fedavg/download=188/4 fedavg/upload=94/2 sac/share=9216/48 sac/subtotal=2688/14 | p[2 0] b[] x[] e3fdd9dae5db0e3cb | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=2 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=48 sac/subtotals_recovered=0 sac/subtotals_sent=14"},
		}},
		{"fed leader not first", Config{Sizes: []int{3, 3, 4}, Compression: compress.Config{Scheme: compress.TopK, Frac: 0.25}}, []foldStep{
			{spec: RoundSpec{Leaders: []int{1, 2, 3}, FedLeader: 2}, want: "08a37aa4dcb3cb97 6843 fedavg/broadcast=567/7 fedavg/download=162/2 fedavg/upload=162/2 sac/share=4608/24 sac/subtotal=1344/7 | p[0 1 2] b[] x[] e3fd14e08b3199dce | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=3 sac/rounds_started=3 sac/shares_sent=24 sac/subtotals_recovered=0 sac/subtotals_sent=7"},
			{spec: RoundSpec{Leaders: []int{2, 0, 1}, FedLeader: 1}, want: "0beb9a41ea891fe4 6843 fedavg/broadcast=1134/14 fedavg/download=324/4 fedavg/upload=324/4 sac/share=9216/48 sac/subtotal=2688/14 | p[0 1 2] b[] x[] e3fd3f3b8e2faf363 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=48 sac/subtotals_recovered=0 sac/subtotals_sent=14"},
		}},
		{"guarded median", Config{Sizes: []int{5, 5, 5}, K: []int{3}, Guard: &sac.Guard{ShareBound: 10, CrossCheck: true}, Aggregator: fl.CoordinateMedian{}}, []foldStep{
			{spec: RoundSpec{Leaders: []int{0, 0, 1}, FedLeader: 1,
				Adversary: map[int]sac.AdversaryPlan{0: {3: sac.ByzPoisonScale}, 2: {1: sac.ByzEquivocate}}}, want: "3c3c0136103cdaa9 58656 fedavg/broadcast=2304/12 fedavg/download=384/2 fedavg/upload=192/1 sac/accuse=128/16 sac/audit=352/44 sac/claims=11520/12 sac/result=2304/12 sac/share=34560/180 sac/subtotal=6912/36 | p[0 1] b[2] x[0:[3]] e0000000000000000 | round/byzantine_subgroups=1 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=2 sac/byzantine_equivocation=1 sac/byzantine_excluded=1 sac/byzantine_share_range=4 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=3 sac/rounds_started=3 sac/shares_sent=180 sac/subtotals_recovered=0 sac/subtotals_sent=36"},
			{spec: RoundSpec{Leaders: []int{0, 0, 0}, FedLeader: 0}, want: "473a103d5b6ffa01 58752 fedavg/broadcast=4608/24 fedavg/download=768/4 fedavg/upload=576/3 sac/accuse=128/16 sac/audit=736/92 sac/claims=23040/24 sac/result=4608/24 sac/share=69120/360 sac/subtotal=13824/72 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=1 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=5 sac/byzantine_equivocation=1 sac/byzantine_excluded=1 sac/byzantine_share_range=4 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=360 sac/subtotals_recovered=0 sac/subtotals_sent=72"},
		}},
		{"secure upper fraction", Config{Sizes: []int{3, 3, 3, 4}, Fraction: 0.67, SecureUpper: true}, []foldStep{
			{want: "1890b13894e74b50 11328 fedavg/broadcast=1728/9 fedavg/download=576/3 sac/share=6912/36 sac/subtotal=2112/11 | p[3 0 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=1 round/subgroups_ok=4 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=5 sac/rounds_started=5 sac/shares_sent=36 sac/subtotals_recovered=0 sac/subtotals_sent=11"},
			{want: "56224411e40a8784 11328 fedavg/broadcast=3456/18 fedavg/download=1152/6 sac/share=13824/72 sac/subtotal=4224/22 | p[2 3 1] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=2 round/subgroups_ok=8 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=10 sac/rounds_started=10 sac/shares_sent=72 sac/subtotals_recovered=0 sac/subtotals_sent=22"},
		}},
		{"compression crash", Config{Sizes: []int{3, 3, 4}, K: []int{2}, Compression: compress.Config{Scheme: compress.Quant8}}, []foldStep{
			{spec: RoundSpec{Crash: map[int]sac.CrashPlan{2: {1: sac.AfterShares}}}, want: "3d134b27f3735589 12503 fedavg/broadcast=259/7 fedavg/download=74/2 fedavg/upload=74/2 sac/share=11520/60 sac/subtotal=576/3 | p[0 1 2] b[] x[] e3f6592b0def75685 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=1 sac/rounds_failed=0 sac/rounds_ok=3 sac/rounds_started=3 sac/shares_sent=60 sac/subtotals_recovered=0 sac/subtotals_sent=3"},
			{want: "d5885a2687bec7de 12503 fedavg/broadcast=518/14 fedavg/download=148/4 fedavg/upload=148/4 sac/share=23040/120 sac/subtotal=1152/6 | p[0 1 2] b[] x[] e3f6cc3437901d1ca | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=1 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=120 sac/subtotals_recovered=0 sac/subtotals_sent=6"},
		}},
		{"reconfigure", Config{Sizes: []int{3, 3}, K: []int{2}}, []foldStep{
			{want: "378a1c2aa4e12ce1 6144 fedavg/broadcast=768/4 fedavg/download=192/1 fedavg/upload=192/1 sac/share=4608/24 sac/subtotal=384/2 | p[0 1] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=2 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=2 sac/rounds_started=2 sac/shares_sent=24 sac/subtotals_recovered=0 sac/subtotals_sent=2"},
			{sizes: []int{4, 3, 5}, k: []int{3, 2, 3},
				want: "1dc69213f755c4d0 21888 fedavg/broadcast=2496/13 fedavg/download=576/3 fedavg/upload=576/3 sac/share=23040/120 sac/subtotal=1344/7 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=5 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=5 sac/rounds_started=5 sac/shares_sent=120 sac/subtotals_recovered=0 sac/subtotals_sent=7"},
			{sizes: []int{5},
				want: "6c5e1cf8f58bef48 5376 fedavg/broadcast=3264/17 fedavg/download=576/3 fedavg/upload=576/3 sac/share=26880/140 sac/subtotal=2112/11 | p[0] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=3 round/sac_failed=0 round/started=3 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=6 sac/rounds_started=6 sac/shares_sent=140 sac/subtotals_recovered=0 sac/subtotals_sent=11"},
			{sizes: []int{3, 3}, k: []int{2},
				want: "0faf524b86d852a0 6144 fedavg/broadcast=4032/21 fedavg/download=768/4 fedavg/upload=768/4 sac/share=31488/164 sac/subtotal=2496/13 | p[0 1] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=4 round/sac_failed=0 round/started=4 round/subgroups_excluded=0 round/subgroups_ok=8 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=8 sac/rounds_started=8 sac/shares_sent=164 sac/subtotals_recovered=0 sac/subtotals_sent=13"},
		}},
		{"secure upper fed leader", Config{Sizes: []int{4, 3, 3}, SecureUpper: true}, []foldStep{
			{spec: RoundSpec{Leaders: []int{3, 1, 2}, FedLeader: 1}, want: "6cc55410d10147ea 9216 fedavg/broadcast=1344/7 fedavg/download=384/2 sac/share=5760/30 sac/subtotal=1728/9 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=4 sac/rounds_started=4 sac/shares_sent=30 sac/subtotals_recovered=0 sac/subtotals_sent=9"},
			{spec: RoundSpec{Leaders: []int{0, 2, 0}, FedLeader: 2}, want: "d9fccc7a60260e76 9216 fedavg/broadcast=2688/14 fedavg/download=768/4 sac/share=11520/60 sac/subtotal=3456/18 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=0 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=6 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=8 sac/rounds_started=8 sac/shares_sent=60 sac/subtotals_recovered=0 sac/subtotals_sent=18"},
		}},
		{"secure upper crash", Config{Sizes: []int{3, 3, 3}, K: []int{2}, SecureUpper: true}, []foldStep{
			{spec: RoundSpec{Crash: map[int]sac.CrashPlan{1: {2: sac.AfterShares}}}, want: "12ce6b20753f2b23 10568 fedavg/broadcast=1152/6 fedavg/download=384/2 sac/recovery=192/1 sac/recovery-req=8/1 sac/share=8064/42 sac/subtotal=768/4 | p[0 1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=1 round/sac_failed=0 round/started=1 round/subgroups_excluded=0 round/subgroups_ok=3 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=1 sac/rounds_failed=0 sac/rounds_ok=4 sac/rounds_started=4 sac/shares_sent=42 sac/subtotals_recovered=1 sac/subtotals_sent=4"},
			// Subgroup 0's leader crashes: its SAC fails, and it stays down
			// for the rest of the round, so the download sent to it is
			// charged and dropped and it relays nothing to its followers.
			{spec: RoundSpec{Crash: map[int]sac.CrashPlan{0: {0: sac.AfterShares}}}, want: "698680f375338a7e 9024 fedavg/broadcast=1920/10 fedavg/download=768/4 sac/recovery=192/1 sac/recovery-req=8/1 sac/share=15360/80 sac/subtotal=1344/7 | p[1 2] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=2 round/sac_failed=1 round/started=2 round/subgroups_excluded=0 round/subgroups_ok=5 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=2 sac/rounds_failed=1 sac/rounds_ok=7 sac/rounds_started=8 sac/shares_sent=80 sac/subtotals_recovered=1 sac/subtotals_sent=7"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			tc.cfg.Telemetry = reg
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
				spec := st.spec
				spec.SampleCounts = counts
				if spec.Leaders == nil {
					spec.FedLeader = -1
				}
				res, err := sys.AggregateRound(randModels(r, n, 24), spec)
				if err != nil {
					t.Fatal(err)
				}
				if got := roundLine(res, sys.Counter(), reg); got != st.want {
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

	t.Run("baseline", func(t *testing.T) {
		reg := telemetry.New()
		sys, err := NewSystem(Config{Sizes: []int{3, 2}, Telemetry: reg}, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(42))
		for round, want := range []string{
			"6086a1bd26173a8f 7680 sac/share=3840/20 sac/subtotal=3840/20 | p[0] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=0 round/sac_failed=0 round/started=0 round/subgroups_excluded=0 round/subgroups_ok=0 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=1 sac/rounds_started=1 sac/shares_sent=20 sac/subtotals_recovered=0 sac/subtotals_sent=20",
			"5ba15eee08ea2dc5 7680 sac/share=7680/40 sac/subtotal=7680/40 | p[0] b[] x[] e0000000000000000 | round/byzantine_subgroups=0 round/completed=0 round/sac_failed=0 round/started=0 round/subgroups_excluded=0 round/subgroups_ok=0 sac/byzantine_equivocation=0 sac/byzantine_excluded=0 sac/byzantine_share_range=0 sac/byzantine_subtotal_mismatch=0 sac/msgs_invalid=0 sac/peers_crashed=0 sac/rounds_failed=0 sac/rounds_ok=2 sac/rounds_started=2 sac/shares_sent=40 sac/subtotals_recovered=0 sac/subtotals_sent=40",
		} {
			res, err := sys.BaselineAggregate(randModels(r, 5, 24))
			if err != nil {
				t.Fatal(err)
			}
			if got := roundLine(res, sys.Counter(), reg); got != want {
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
