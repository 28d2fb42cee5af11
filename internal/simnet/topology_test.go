package simnet

import (
	"encoding/json"
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
	spec := JitterSpec{Kind: JitterLognormal, Median: 3 * Millisecond, Sigma: 1.6, Max: 250 * Millisecond}
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
	unclamped := JitterSpec{Kind: JitterLognormal, Median: Millisecond, Sigma: 3}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		if s := unclamped.sample(rng); s > 20*Millisecond {
			t.Fatalf("draw %d: sample %v above the default 20×Median clamp", i, s)
		}
	}
}

// TestJitterRNGConsumption pins the rng-consumption contract replay
// depends on: none draws nothing, uniform draws exactly one Int63n,
// lognormal exactly one NormFloat64. If a refactor changed the draw
// count, every seeded WAN run in the repo would silently reshuffle.
func TestJitterRNGConsumption(t *testing.T) {
	next := func(rng *rand.Rand) int64 { return rng.Int63() }

	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	JitterSpec{}.sample(a)
	if next(a) != next(b) {
		t.Fatal("JitterNone consumed randomness")
	}

	a, b = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	JitterSpec{Kind: JitterUniform, Bound: Millisecond}.sample(a)
	b.Int63n(int64(Millisecond))
	if next(a) != next(b) {
		t.Fatal("JitterUniform did not consume exactly one Int63n")
	}

	a, b = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	JitterSpec{Kind: JitterLognormal, Median: Millisecond, Sigma: 1}.sample(a)
	b.NormFloat64()
	if next(a) != next(b) {
		t.Fatal("JitterLognormal did not consume exactly one NormFloat64")
	}
}

// runTelemetrySnapshot drives a 5-node raft group for five virtual
// seconds with a leader kill in the middle, and returns the telemetry
// snapshot plus the final leader — the replay fingerprint.
func runTelemetrySnapshot(t *testing.T, configure func(*Group)) ([]byte, uint64) {
	t.Helper()
	sim := New()
	reg := telemetry.New()
	reg.SetClock(func() int64 { return int64(sim.Now()) })
	g := NewGroup(sim, "fingerprint", 0, rand.New(rand.NewSource(99)))
	configure(g)
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

// TestUniformTopologyMatchesLegacyPath: the Uniform(latency, jitter)
// topology must be byte-for-byte interchangeable with the legacy
// Group.Latency/Group.Jitter pair — same rng draws, same delivery
// times, so equal seeds yield identical telemetry snapshots and the
// same elected leaders. This is the zero-cost guarantee that lets the
// topology plumbing exist without invalidating any pinned seed.
func TestUniformTopologyMatchesLegacyPath(t *testing.T) {
	legacySnap, legacyLeader := runTelemetrySnapshot(t, func(g *Group) {
		g.Latency = 15 * Millisecond
		g.Jitter = 5 * Millisecond
	})
	topoSnap, topoLeader := runTelemetrySnapshot(t, func(g *Group) {
		g.Topo = Uniform(15*Millisecond, 5*Millisecond)
	})
	if legacyLeader != topoLeader {
		t.Fatalf("leaders diverge: legacy %d vs topology %d", legacyLeader, topoLeader)
	}
	if string(legacySnap) != string(topoSnap) {
		t.Fatalf("equal-seed telemetry snapshots diverge:\nlegacy: %s\ntopo:   %s", legacySnap, topoSnap)
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
	names := PresetNames()
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
