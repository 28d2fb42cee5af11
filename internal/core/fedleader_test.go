package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/sac"
)

// fedLeaderModes are the three ways the FedAvg layer moves a model: plain,
// top-k compressed (keeping every coordinate, so the global model is
// exact), and as shares of the upper SAC.
var fedLeaderModes = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"top-k", Config{Compression: compress.Config{Scheme: compress.TopK, Frac: 1}}},
	{"secure upper", Config{SecureUpper: true}},
}

// TestFedAvgLeaderLeadsWithoutParticipating: the FedAvg leader is the
// round's from its start, and it leads whether or not its own subgroup
// participates — when fraction p drops its SAC, also with one other
// participant only, and when its SAC fails. The global model is FedAvg
// over the participants, every peer alive holds it, and the round costs
// its closed form: each subgroup SAC (n²−1)·8·dim, or (n−1)²·8·dim when
// one follower crashed before sharing; every participant's upload, none
// of which is the leader's own; under SecureUpper no upload model but an
// upper SAC of q = P+1 members, (q²−1)·8·dim; and a download to every
// other subgroup leader and a broadcast to every follower.
func TestFedAvgLeaderLeadsWithoutParticipating(t *testing.T) {
	const dim = 5
	cases := []struct {
		name     string
		sizes    []int
		fraction float64
		crash    map[int]sac.CrashPlan // a crash fails subgroup 0's SAC, whose leader leads
	}{
		{"dropped by fraction p", []int{3, 3, 4}, 0.67, nil},
		{"dropped beside one other participant", []int{3, 4}, 0.5, nil},
		{"its SAC failed", []int{3, 3, 4}, 0, map[int]sac.CrashPlan{0: {1: sac.BeforeShares}}},
	}
	for _, mode := range fedLeaderModes {
		for _, tc := range cases {
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				cfg := mode.cfg
				cfg.Sizes, cfg.Fraction = tc.sizes, tc.fraction
				n, m := cfg.NumPeers(), len(tc.sizes)
				models := randModels(rand.New(rand.NewSource(51)), n, dim)
				counts := make([]float64, n)
				for i := range counts {
					counts[i] = float64(1 + i%4)
				}
				round := func(fed int) (*System, *RoundResult) {
					sys, err := NewSystem(cfg, rand.New(rand.NewSource(52)))
					if err != nil {
						t.Fatal(err)
					}
					res, err := sys.AggregateRound(models, RoundSpec{SampleCounts: counts, Crash: tc.crash, FedLeader: fed})
					if err != nil {
						t.Fatal(err)
					}
					return sys, res
				}
				// The fraction-p draw does not depend on who leads: a first
				// round names the subgroup it drops.
				fed := 0
				if tc.crash == nil {
					_, probe := round(0)
					for slices.Contains(probe.Participated, fed) {
						fed++
					}
				}
				sys, res := round(fed)
				if slices.Contains(res.Participated, fed) || len(res.Participated) == 0 {
					t.Fatalf("participated %v, want subgroups other than the leader's %d", res.Participated, fed)
				}

				// FedAvg weighs each participant's SAC average by its peers'
				// summed sample counts.
				want, total := make([]float64, dim), 0.0
				for _, g := range res.Participated {
					lo, hi, weight := sys.loop.p.offsets[g], sys.loop.p.offsets[g+1], 0.0
					for _, c := range counts[lo:hi] {
						weight += c
					}
					for j, x := range mean(models[lo:hi]) {
						want[j] += weight * x
					}
					total += weight
				}
				for j := range want {
					want[j] /= total
				}
				if d := maxAbsDiff(res.Global, want); d > 1e-12 {
					t.Fatalf("global off FedAvg over the participants by %g", d)
				}
				for i, nd := range sys.loop.nodes {
					if !sys.loop.down[i] && !slices.Equal(nd.global, res.Global) {
						t.Fatalf("peer %d holds %v, not the global model", i, nd.global)
					}
				}

				w, b := int64(8*dim), cfg.Compression.MessageBytes(dim)
				var bytes int64
				for g, size := range tc.sizes {
					if tc.crash[g] != nil {
						bytes += int64((size-1)*(size-1)) * w
					} else {
						bytes += int64(size*size-1) * w
					}
				}
				if p := int64(len(res.Participated)); cfg.SecureUpper {
					bytes += ((p+1)*(p+1) - 1) * w
				} else {
					bytes += p * b
				}
				bytes += int64(m-1)*b + int64(n-m)*b
				if res.Bytes != bytes {
					t.Fatalf("round cost %d B, closed form %d B", res.Bytes, bytes)
				}
			})
		}
	}
}

// TestFedAvgLeaderDownFailsTheRound: a FedAvg leader that crashed in its
// subgroup's SAC makes no global model, and the round says so instead of
// returning a nil one; no other peer takes its place in this round.
func TestFedAvgLeaderDownFailsTheRound(t *testing.T) {
	for _, mode := range fedLeaderModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.Sizes, cfg.K = []int{3, 3, 3}, []int{2}
			sys, err := NewSystem(cfg, rand.New(rand.NewSource(53)))
			if err != nil {
				t.Fatal(err)
			}
			models := randModels(rand.New(rand.NewSource(54)), 9, 4)
			res, err := sys.AggregateRound(models, RoundSpec{Crash: map[int]sac.CrashPlan{1: {0: sac.AfterShares}}, FedLeader: 1})
			if err == nil {
				t.Fatalf("a round led by a crashed peer returned %v, participated %v", res.Global, res.Participated)
			}
		})
	}
}

// TestSlowSubgroupsStillUpload: fraction p saves waiting, not bytes.
// Every subgroup whose SAC succeeded uploads; the FedAvg leader combines
// the first ⌈p·m⌉ that arrive and discards the rest, so at equal seeds a
// p = 0.5 round costs what a p = 1 round does, and its global model is
// the mean over the participants' peers alone.
func TestSlowSubgroupsStillUpload(t *testing.T) {
	const dim = 6
	models := randModels(rand.New(rand.NewSource(55)), 12, dim)
	round := func(fraction float64) *RoundResult {
		sys, err := NewSystem(Config{Sizes: []int{3, 3, 3, 3}, Fraction: fraction}, rand.New(rand.NewSource(56)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.AggregateRound(models, RoundSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	all, half := round(1), round(0.5)
	if len(half.Participated) != 2 {
		t.Fatalf("p = 0.5 combined subgroups %v, want 2 of 4", half.Participated)
	}
	if half.Bytes != all.Bytes {
		t.Fatalf("p = 0.5 round cost %d B, p = 1 %d B", half.Bytes, all.Bytes)
	}
	var sel [][]float64
	for _, g := range half.Participated {
		sel = append(sel, models[3*g:3*g+3]...)
	}
	if d := maxAbsDiff(half.Global, mean(sel)); d > 1e-12 {
		t.Fatalf("global off the participants' mean by %g", d)
	}
}

// TestFedAvgLeaderCombinesAtItsTimeout drives a round by hand at p = 1
// in which two of three subgroups upload: the FedAvg leader waits for
// the third, so no peer holds a global model until its timeout fires,
// and then every peer holds FedAvg over the two. A timeout before the
// first upload does nothing.
func TestFedAvgLeaderCombinesAtItsTimeout(t *testing.T) {
	const dim = 4
	cfg := Config{Sizes: []int{3, 3, 3}}
	p := &plan{cfg: &cfg, dim: dim, offsets: []int{0, 3, 6, 9}, leaders: []int{0, 3, 6}, fed: 1, want: 3}
	models := randModels(rand.New(rand.NewSource(57)), 9, dim)
	h := newHandRound(p, func() {})
	h.begin(p)
	fed := &h.nodes[p.leaders[p.fed]]
	fed.Lead(make([][]float64, 3), make([]float64, dim), new(compress.Delta))
	fed.Expire()
	if sent, _, err := h.flush(fed.id); sent != 0 || err != nil || fed.waiting != 3 {
		t.Fatalf("a timeout before any upload sent %d messages (err %v) and left the leader waiting for %d", sent, err, fed.waiting)
	}
	for g := range p.leaders {
		lo, hi := p.offsets[g], p.offsets[g+1]
		cfg := sac.Config{N: 3, K: 3, Leader: 0, Mode: sac.ModeLeader, Rng: rand.New(rand.NewSource(int64(g)))}
		if err := h.secure(h.ids[lo:hi], false, cfg, models[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []int{2, 1} {
		h.nodes[p.leaders[g]].Upload(nil, nil)
		if err := h.settle(nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range h.nodes {
		if h.nodes[i].global != nil {
			t.Fatalf("peer %d holds a global model before the FedAvg leader's timeout", i)
		}
	}
	fed.Expire()
	if err := h.settle(nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fed.taken, []int{2, 1}) {
		t.Fatalf("the FedAvg leader took %v, want [2 1]", fed.taken)
	}
	want := mean(models[3:])
	for i := range h.nodes {
		if d := maxAbsDiff(h.nodes[i].global, want); h.nodes[i].global == nil || d > 1e-12 {
			t.Fatalf("peer %d holds %v, want the mean of subgroups 1 and 2, %v", i, h.nodes[i].global, want)
		}
	}
}

// TestNonFiniteGlobalModelFailsTheRound: an update with a NaN or an
// infinity in it makes the global model non-finite under every rule, and
// the round fails instead of handing it to every peer.
func TestNonFiniteGlobalModelFailsTheRound(t *testing.T) {
	models := [][]float64{{1, math.NaN()}, {1, 0}, {1, 0}, {1, math.Inf(1)}, {1, 0}, {1, 0}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fedavg", Config{}},
		{"k of n", Config{K: []int{2}}},
		{"aggregator", Config{Aggregator: fl.CoordinateMedian{}}},
		{"secure upper", Config{SecureUpper: true}},
		{"compression", Config{Compression: compress.Config{Scheme: compress.TopK, Frac: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Sizes = []int{3, 3}
			sys, err := NewSystem(cfg, rand.New(rand.NewSource(58)))
			if err != nil {
				t.Fatal(err)
			}
			if res, err := sys.AggregateRound(models, RoundSpec{}); !errors.Is(err, errNotFinite) {
				t.Fatalf("the round returned %v and error %v, want %v", res, err, errNotFinite)
			}
		})
	}
}
