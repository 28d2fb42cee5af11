package chaos

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// counterMonotonicityChecker samples the registry at every invariant
// sweep and reports any counter that regressed — counters are defined
// as monotone, so a decrease means a lost or double-applied update.
func counterMonotonicityChecker(reg *telemetry.Registry) checker {
	last := map[string]int64{}
	return checker{Name: "telemetry-monotonic", Check: func(view) []string {
		var breaches []string
		for name, val := range reg.Snapshot().Counters {
			if prev, ok := last[name]; ok && val < prev {
				breaches = append(breaches,
					fmt.Sprintf("counter %s regressed %d -> %d", name, prev, val))
			}
			last[name] = val
		}
		return breaches
	}}
}

// telemetryCampaign is the partitioned/crash-heavy configuration the
// chaos hook is pinned on: enough fault pressure to force re-elections.
// The SAC oracle runs off it too, and its crash plans exercise share
// recovery.
func telemetryCampaign(seed int64, reg *telemetry.Registry) Campaign {
	return Campaign{
		Seed:      seed,
		Steps:     12,
		Mix:       PartitionHeavyMix,
		Telemetry: reg,
	}
}

// TestChaosTelemetryCampaign runs a partitioned campaign with a
// registry attached and a monotonicity checker sampling it at every
// sweep, and asserts the run recorded at least one election and at
// least one recovered subtotal (the ISSUE's chaos-hook acceptance).
func TestChaosTelemetryCampaign(t *testing.T) {
	reg := telemetry.New()
	c := telemetryCampaign(11, reg)
	c.extraCheckers = []checker{counterMonotonicityChecker(reg)}
	// Six SAC oracle rounds, the oracle's three off this seed and three
	// off the next, so that some crash plan forces a recovery.
	next := c
	next.Seed++
	rep := c.Run()
	for _, r := range []*Report{rep, SACOracle(c), SACOracle(next)} {
		for _, v := range r.Violations {
			t.Errorf("violation: %s", v)
		}
	}
	if t.Failed() {
		t.Fatal("campaign or SAC oracle failed")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["raft/elections_won"]; got < 1 {
		t.Errorf("raft/elections_won = %d, want >= 1", got)
	}
	if got := snap.Counters["sac/subtotals_recovered"]; got < 1 {
		t.Errorf("sac/subtotals_recovered = %d, want >= 1", got)
	}
	if got := snap.Counters["sac/rounds_started"]; got == 0 {
		t.Error("sac/rounds_started = 0: oracle rounds did not reach the registry")
	}
	if rep.Stats.Partitions+rep.Stats.Crashes == 0 {
		t.Error("campaign applied no partitions or crashes — scenario is not exercising faults")
	}
}

// TestChaosTelemetryDeterministic is the chaos half of the determinism
// regression: two identical-seed campaigns against fresh registries
// must serialize to byte-identical JSON, and a different seed must not.
func TestChaosTelemetryDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		reg := telemetry.New()
		c := telemetryCampaign(seed, reg)
		if rep, sac := c.Run(), SACOracle(c); !rep.Passed() || !sac.Passed() {
			t.Fatalf("seed %d campaign or SAC oracle failed: %v %v", seed, rep.Violations, sac.Violations)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(11), run(11)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical seeds produced different telemetry JSON:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if c := run(12); bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical telemetry")
	}
}

// TestChaosTelemetryTwoLayer smoke-checks a crash-heavy campaign: the
// full cluster plus the post-chaos aggregation round must reach the
// registry through cluster.Options, core.Config and sac.Config.
func TestChaosTelemetryTwoLayer(t *testing.T) {
	reg := telemetry.New()
	c := Campaign{
		Seed:      5,
		Steps:     8,
		Mix:       CrashHeavyMix,
		Telemetry: reg,
	}
	rep := c.Run()
	if !rep.Passed() {
		t.Fatalf("campaign failed: %v", rep.Violations)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["raft/elections_won"]; got < 4 {
		t.Errorf("raft/elections_won = %d, want >= 4 (3 subgroups + fed layer)", got)
	}
	if got := snap.Counters["round/completed"]; got < 1 {
		t.Errorf("round/completed = %d, want >= 1 (post-chaos aggregation round)", got)
	}
	if got := snap.Counters["sac/rounds_ok"]; got < 1 {
		t.Errorf("sac/rounds_ok = %d, want >= 1", got)
	}
}
