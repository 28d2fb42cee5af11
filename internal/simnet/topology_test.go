package simnet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/raft"
	"repro/internal/telemetry"
)

func TestTopologyAsymmetricDelays(t *testing.T) {
	topo, err := Preset("wan50")
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin placement: host 1 → us-east, host 2 → eu-west, and
	// host 4 wraps around to us-east again.
	if r := topo.regions[topo.regionOf(1)]; r != "us-east" {
		t.Fatalf("host 1 region = %q", r)
	}
	if r := topo.regions[topo.regionOf(2)]; r != "eu-west" {
		t.Fatalf("host 2 region = %q", r)
	}
	if d := topo.LinkOf(1, 4).Delay; d != topo.LinkOf(1, 1).Delay {
		t.Fatalf("1→4 should ride the intra-region link, got %v", d)
	}
	// Asymmetry is the point: the two directions of one pair differ.
	ab := topo.LinkOf(1, 2).Delay
	ba := topo.LinkOf(2, 1).Delay
	if ab == ba {
		t.Fatalf("us-east↔eu-west delays symmetric (%v) — topology must model asymmetric routes", ab)
	}
	if err := topo.SetLink("us-east", "no-such-region", Link{}); err == nil {
		t.Fatal("SetLink to unknown region succeeded")
	}
}

func TestLognormalJitterDeterministic(t *testing.T) {
	spec := JitterSpec{Median: 3 * Millisecond, Sigma: 1.6, Max: 250 * Millisecond}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		sa, sb := spec.sample(a), spec.sample(b)
		if sa != sb {
			t.Fatalf("draw %d: equal-seed lognormal samples differ: %v vs %v", i, sa, sb)
		}
		if sa < 0 || sa > 250*Millisecond {
			t.Fatalf("draw %d: sample %v outside [0, Max]", i, sa)
		}
	}
	// The default clamp is 20× the median.
	unclamped := JitterSpec{Median: Millisecond, Sigma: 3}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		if s := unclamped.sample(rng); s > 20*Millisecond {
			t.Fatalf("draw %d: sample %v above the default 20×Median clamp", i, s)
		}
	}
}

// TestJitterRNGConsumption pins the rng-consumption contract replay
// depends on: a link with no median draws nothing, any other exactly one
// NormFloat64. If a refactor changed the draw count, every seeded WAN
// run in the repo would silently reshuffle.
func TestJitterRNGConsumption(t *testing.T) {
	next := func(rng *rand.Rand) int64 { return rng.Int63() }

	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	JitterSpec{}.sample(a)
	if next(a) != next(b) {
		t.Fatal("a link with no median consumed randomness")
	}

	a, b = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	JitterSpec{Median: Millisecond, Sigma: 1}.sample(a)
	b.NormFloat64()
	if next(a) != next(b) {
		t.Fatal("a lognormal link did not consume exactly one NormFloat64")
	}
}

// runTelemetrySnapshot drives a 5-node raft group on topo, with jitter
// U(0, jitter) on every link, for five virtual seconds with a leader
// kill in the middle, and returns the telemetry snapshot plus the final
// leader — the replay fingerprint.
func runTelemetrySnapshot(t *testing.T, topo *Topology, jitter Duration) ([]byte, uint64) {
	t.Helper()
	sim := New()
	reg := telemetry.New()
	reg.SetClock(func() int64 { return int64(sim.Now()) })
	g := NewGroup(sim, "fingerprint", topo, rand.New(rand.NewSource(99)))
	g.Jitter = jitter
	ids := []uint64{1, 2, 3, 4, 5}
	for _, id := range ids {
		node, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids,
			ElectionTickMin: 50, ElectionTickMax: 100, HeartbeatTick: 15,
			Rng:       rand.New(rand.NewSource(99*100 + int64(id))),
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(2*Second)) {
		t.Fatal("no leader within 2 virtual seconds")
	}
	first := g.Leader()
	g.Host(first).Crash()
	sim.RunFor(5 * Second)
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return snap, g.Leader()
}

// TestUniformTopologyMatchesLegacyPath: a group on Uniform(latency)
// with Group.Jitter set replays what a group with a fixed Latency and
// Jitter field did before every group sampled its delay through a
// Topology — same rng draws, same delivery times. The digest of that run's telemetry
// snapshot and its final leader were recorded with the fields; every
// seed pinned across the repository replays only if they still match.
func TestUniformTopologyMatchesLegacyPath(t *testing.T) {
	const legacyDigest, legacyLeader = "0da8a98f32fe3de26e5aa6b7110373550ab6076775f87cb0aa3e296ef82582be", 2
	snap, leader := runTelemetrySnapshot(t, Uniform(15*Millisecond), 5*Millisecond)
	if leader != legacyLeader {
		t.Fatalf("final leader %d, the legacy path elected %d", leader, legacyLeader)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != legacyDigest {
		t.Fatalf("telemetry snapshot digest %s, the legacy path's was %s:\n%s", got, legacyDigest, snap)
	}
}

func TestPresetFreshCopies(t *testing.T) {
	a, err := Preset("wan50")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Preset("wan50")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Preset returned a shared pointer")
	}
	was := b.LinkOf(1, 2)
	if err := a.SetLink("us-east", "eu-west", Link{Delay: was.Delay + Second}); err != nil {
		t.Fatal(err)
	}
	if b.LinkOf(1, 2) != was {
		t.Fatal("SetLink on one preset copy leaked into another")
	}
	if _, err := Preset("wan9000"); err == nil {
		t.Fatal("unknown preset name succeeded")
	}
	names := presetNames()
	want := []string{"lan15", "wan200", "wan50"}
	if len(names) != len(want) {
		t.Fatalf("PresetNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("PresetNames = %v, want %v", names, want)
		}
	}
}
