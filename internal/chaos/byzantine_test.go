package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/sac"
)

// TestByzantineOracleSweep is the headline acceptance run: twenty seeds
// of adversarial aggregation rounds, every invariant green. Each round
// internally contrasts the guarded stack against a plain-mean shadow run
// (the byzantine-vacuous checker), so a pass certifies both that robust
// aggregation holds AND that the same campaigns fail without it.
func TestByzantineOracleSweep(t *testing.T) {
	byzTotal, detTotal := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rep := ByzantineOracle(Campaign{Seed: seed})
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: %d violations, first: %s", seed, len(rep.Violations), rep.Violations[0])
		}
		if rep.Stats.Byzantines == 0 {
			t.Fatalf("seed %d: oracle ran without adversaries", seed)
		}
		byzTotal += rep.Stats.Byzantines
		detTotal += rep.Stats.ByzantineDetections
	}
	if detTotal == 0 {
		t.Fatalf("%d adversaries across 20 seeds triggered zero detections", byzTotal)
	}
}

// TestByzantineOracleCountsEveryAggregation holds the oracle to the
// SACRounds definition: each of its two rounds runs three two-layer
// aggregations (clean, robust, plain) and one guarded SAC probe per
// subgroup, and it marks one adversary per subgroup, so the count is
// 2·3 + Byzantines. Seed 1 draws three subgroups in both rounds.
func TestByzantineOracleCountsEveryAggregation(t *testing.T) {
	rep := ByzantineOracle(Campaign{Seed: 1})
	if !rep.Passed() {
		t.Fatalf("seed 1: %v", rep.Violations)
	}
	if s := rep.Stats; s.SACRounds != 12 || s.SACRounds != 2*3+s.Byzantines {
		t.Fatalf("seed 1: %d SAC rounds for %d adversaries, want 12 = 2·3 + 6", s.SACRounds, s.Byzantines)
	}
}

// TestByzantineOracleDeterministic pins seed-replayability: two runs of
// the same campaign must agree on every stat and every violation.
func TestByzantineOracleDeterministic(t *testing.T) {
	run := func() *Report {
		return ByzantineOracle(Campaign{Seed: 77})
	}
	a, b := run(), run()
	aj, _ := json.Marshal(struct {
		S Stats
		V []Violation
	}{a.Stats, a.Violations})
	bj, _ := json.Marshal(struct {
		S Stats
		V []Violation
	}{b.Stats, b.Violations})
	if string(aj) != string(bj) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", aj, bj)
	}
}

// TestTwoLayerByzantineCampaign drives full schedules — crashes,
// partitions and ActByzantine marks — against the two-layer cluster and
// requires the robust post-quiesce aggregation round to hold its
// invariants with adversaries among the elected subgroups.
func TestTwoLayerByzantineCampaign(t *testing.T) {
	byzTotal := 0
	for seed := int64(1); seed <= 5; seed++ {
		c := Campaign{Seed: seed, Steps: 30, Mix: ByzantineMix,
			SubgroupSize: 4}
		rep := c.Run()
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: %d violations, first: %s", seed, len(rep.Violations), rep.Violations[0])
		}
		byzTotal += rep.Stats.Byzantines
	}
	if byzTotal == 0 {
		t.Fatal("no adversaries were marked across 5 two-layer campaigns")
	}
}

// TestByzantineScheduleProperties checks the generator: Byzantine mixes
// emit ActByzantine actions carrying valid schedule behaviors, and the
// Byzantine campaign default gives subgroups enough peers (n ≥ 4) for
// the honest-majority precondition 3f < n at f = 1.
func TestByzantineScheduleProperties(t *testing.T) {
	c := Campaign{Seed: 3, Steps: 60, Mix: ByzantineMix}
	n := c.normalize()
	if n.SubgroupSize < 4 {
		t.Fatalf("Byzantine campaign defaulted SubgroupSize = %d < 4", n.SubgroupSize)
	}
	valid := make(map[string]bool, len(scheduleBehaviors))
	for _, b := range scheduleBehaviors {
		valid[string(b)] = true
	}
	count := 0
	for _, a := range c.Generate() {
		if a.Kind != ActByzantine {
			continue
		}
		count++
		if !valid[a.Behavior] {
			t.Fatalf("generated ActByzantine with behavior %q", a.Behavior)
		}
		if sac.Behavior(a.Behavior) == sac.ByzEquivocate {
			t.Fatal("schedules must not draw equivocation (leader-bound; the oracle covers it)")
		}
	}
	if count == 0 {
		t.Fatal("ByzantineMix generated no ActByzantine actions in 60 steps")
	}
}

// TestLegacyMixesUnchanged guards the roll mapping: adding the Byzantine
// fault kind must not perturb schedules generated by pre-existing mixes.
func TestLegacyMixesUnchanged(t *testing.T) {
	for _, mix := range []FaultMix{DefaultMix, CrashHeavyMix, PartitionHeavyMix, FlappingMix} {
		c := Campaign{Seed: 9, Steps: 40, Mix: mix}
		for _, a := range c.Generate() {
			if a.Kind == ActByzantine {
				t.Fatalf("legacy mix %+v generated an ActByzantine action", mix)
			}
		}
	}
}
