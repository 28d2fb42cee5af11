package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file is the WAN/multi-region latency model. The paper's testbed
// injects one uniform 15 ms delay on every link; a production fleet
// spans regions whose pairwise delays are asymmetric (routing is not)
// and whose jitter is heavy-tailed (queueing is lognormal-ish, not
// uniform). A Topology names regions, places hosts on them, and gives
// every ordered region pair its own base delay and jitter distribution.
// Every Group samples its delays from one; Uniform is the paper's single
// link. Uniform jitter U(0, J) is not a link kind but a fault a group
// carries on top of its topology (Group.Jitter, chaos ActDelay).

// JitterSpec parameterizes one link's jitter: exp(N(ln Median,
// Sigma²)), clamped to Max — the heavy-tailed shape of real WAN queueing
// delay. The zero value adds none.
type JitterSpec struct {
	// Median and Sigma shape the distribution: the sampled jitter's
	// median is Median (≤ 0: no jitter) and ln(jitter) has standard
	// deviation Sigma.
	Median Duration
	Sigma  float64
	// Max clamps samples (0: 20× Median). The clamp keeps the tail
	// heavy but bounded, so liveness bounds stay finite.
	Max Duration
}

// sample draws one jitter value. The rng consumption is part of the
// deterministic-replay contract: a link with no Median consumes nothing,
// any other one NormFloat64.
func (j JitterSpec) sample(rng *rand.Rand) Duration {
	if j.Median <= 0 {
		return 0
	}
	v := float64(j.Median) * math.Exp(j.Sigma*rng.NormFloat64())
	max := j.Max
	if max <= 0 {
		max = 20 * j.Median
	}
	if v > float64(max) {
		v = float64(max)
	}
	return Duration(v)
}

// Link is one ordered region pair's delay model: a fixed base delay plus
// a jitter distribution.
type Link struct {
	Delay  Duration
	Jitter JitterSpec
}

// Topology is a named multi-region latency model: an asymmetric
// region×region delay matrix with per-link jitter. Hosts map to regions
// round-robin over the region list by host ID — deterministic and
// balanced for the 1..n IDs the simulated groups use.
type Topology struct {
	Name    string
	regions []string
	links   [][]Link // [fromRegion][toRegion]
}

// newTopology creates a topology over the given regions with all links
// zero-delay; fill them in with SetLink/SetAllLinks.
func newTopology(name string, regions ...string) (*Topology, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("simnet: topology %q needs at least one region", name)
	}
	seen := map[string]bool{}
	for _, r := range regions {
		if r == "" || seen[r] {
			return nil, fmt.Errorf("simnet: topology %q has empty or duplicate region %q", name, r)
		}
		seen[r] = true
	}
	t := &Topology{
		Name:    name,
		regions: append([]string(nil), regions...),
		links:   make([][]Link, len(regions)),
	}
	for i := range t.links {
		t.links[i] = make([]Link, len(regions))
	}
	return t, nil
}

func (t *Topology) regionIndex(region string) (int, error) {
	for i, r := range t.regions {
		if r == region {
			return i, nil
		}
	}
	return 0, fmt.Errorf("simnet: topology %q has no region %q", t.Name, region)
}

// SetLink sets the delay model for the ordered pair from→to. Asymmetric
// matrices are the point: SetLink(a, b, …) does not touch b→a.
func (t *Topology) SetLink(from, to string, l Link) error {
	fi, err := t.regionIndex(from)
	if err != nil {
		return err
	}
	ti, err := t.regionIndex(to)
	if err != nil {
		return err
	}
	t.links[fi][ti] = l
	return nil
}

// SetAllLinks sets every ordered pair (including self-pairs) to l.
func (t *Topology) SetAllLinks(l Link) {
	for i := range t.links {
		for j := range t.links[i] {
			t.links[i][j] = l
		}
	}
}

// regionOf resolves a host's region index: round-robin by ID (host 1 →
// region 0, host 2 → region 1, …).
func (t *Topology) regionOf(host uint64) int {
	if host == 0 {
		return 0
	}
	return int((host - 1) % uint64(len(t.regions)))
}

// LinkOf returns the delay model governing messages from→to.
func (t *Topology) LinkOf(from, to uint64) Link {
	return t.links[t.regionOf(from)][t.regionOf(to)]
}

// SampleDelay draws one delivery delay for a from→to message: the
// link's base delay plus one jitter sample.
func (t *Topology) SampleDelay(from, to uint64, rng *rand.Rand) Duration {
	l := t.LinkOf(from, to)
	return l.Delay + l.Jitter.sample(rng)
}

// Uniform builds a single-region topology: every message is delayed by
// latency exactly. It draws nothing from the group rng, so a fixed delay
// replays byte-for-byte whatever else the group draws; Group.Jitter adds
// uniform jitter on top.
func Uniform(latency Duration) *Topology {
	t, err := newTopology("uniform", "local")
	if err != nil {
		panic(err) // one non-empty region cannot fail
	}
	t.SetAllLinks(Link{Delay: latency})
	return t
}

// wan50 builds the 50 ms-RTT three-region profile: asymmetric
// inter-region one-way delays of 21–30 ms (RTTs of 44–56 ms, like
// cross-cloud us-east↔eu-west↔ap-south routes), ~1 ms intra-region
// delay, and heavy-tailed lognormal jitter (σ=1.6, clamped at 250 ms —
// transient cross-continent congestion). The tail is calibrated so
// that runs of delayed heartbeats occasionally starve a follower past
// the paper-default 50-tick election timeout — the exact conditions
// under which stock Raft fires spurious elections on a WAN — while
// staying far under the ~10×RTT timeouts the self-tuning loop derives.
func wan50() *Topology {
	t, err := newTopology("wan50", "us-east", "eu-west", "ap-south")
	if err != nil {
		panic(err)
	}
	intra := JitterSpec{Median: 200 * Microsecond, Sigma: 0.5, Max: 2 * Millisecond}
	inter := JitterSpec{Median: 3 * Millisecond, Sigma: 1.6, Max: 250 * Millisecond}
	for _, r := range t.regions {
		if err := t.SetLink(r, r, Link{Delay: 1 * Millisecond, Jitter: intra}); err != nil {
			panic(err)
		}
	}
	for _, e := range []struct {
		from, to string
		delay    Duration
	}{
		{"us-east", "eu-west", 24 * Millisecond},
		{"eu-west", "us-east", 27 * Millisecond},
		{"us-east", "ap-south", 30 * Millisecond},
		{"ap-south", "us-east", 26 * Millisecond},
		{"eu-west", "ap-south", 21 * Millisecond},
		{"ap-south", "eu-west", 23 * Millisecond},
	} {
		if err := t.SetLink(e.from, e.to, Link{Delay: e.delay, Jitter: inter}); err != nil {
			panic(err)
		}
	}
	return t
}

// wan200 builds a harsher two-region intercontinental profile: ~100 ms
// one-way delays (200 ms RTT) with heavy lognormal jitter — the regime
// where even generous static timeouts misfire and only RTT-derived
// tuning stays quiet.
func wan200() *Topology {
	t, err := newTopology("wan200", "us-west", "ap-southeast")
	if err != nil {
		panic(err)
	}
	intra := JitterSpec{Median: 300 * Microsecond, Sigma: 0.6, Max: 3 * Millisecond}
	inter := JitterSpec{Median: 5 * Millisecond, Sigma: 1.2, Max: 150 * Millisecond}
	for _, r := range t.regions {
		if err := t.SetLink(r, r, Link{Delay: 1 * Millisecond, Jitter: intra}); err != nil {
			panic(err)
		}
	}
	if err := t.SetLink("us-west", "ap-southeast", Link{Delay: 96 * Millisecond, Jitter: inter}); err != nil {
		panic(err)
	}
	if err := t.SetLink("ap-southeast", "us-west", Link{Delay: 104 * Millisecond, Jitter: inter}); err != nil {
		panic(err)
	}
	return t
}

// presets maps topology names to constructors.
var presets = map[string]func() *Topology{
	"lan15":  func() *Topology { t := Uniform(15 * Millisecond); t.Name = "lan15"; return t },
	"wan50":  wan50,
	"wan200": wan200,
}

// Preset returns a fresh copy of a named topology: "lan15" (the paper's
// uniform 15 ms), "wan50" (three regions, ~50 ms RTTs, lognormal
// jitter), "wan200" (two regions, ~200 ms RTT).
func Preset(name string) (*Topology, error) {
	mk, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("simnet: unknown topology %q (have %v)", name, presetNames())
	}
	return mk(), nil
}

// presetNames lists the available topology presets, sorted.
func presetNames() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
