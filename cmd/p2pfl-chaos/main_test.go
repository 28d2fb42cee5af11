package main

import (
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
)

func TestCampaignFlagMapping(t *testing.T) {
	c := campaign(9, 12, "crash", "raft-kv", "paper", "", 7, 2, 4)
	if c.Seed != 9 || c.Steps != 12 || c.Nodes != 7 {
		t.Fatalf("campaign = %+v", c)
	}
	if c.Mix != chaos.CrashHeavyMix || c.Target != chaos.TargetRaftKV || c.Profile != cluster.Paper {
		t.Fatalf("mix/target/profile = %v/%v/%v", c.Mix, c.Target, c.Profile)
	}
	c = campaign(1, 8, "partition", "two-layer", "wan", "wan50", 5, 3, 3)
	if c.Mix != chaos.PartitionHeavyMix || c.Target != chaos.TargetTwoLayer {
		t.Fatalf("mix/target = %v/%v", c.Mix, c.Target)
	}
	if c.Profile != cluster.WAN || c.Topology != "wan50" {
		t.Fatalf("profile/topology = %v/%q", c.Profile, c.Topology)
	}
	if c.Subgroups != 3 || c.SubgroupSize != 3 {
		t.Fatalf("m/n = %d/%d", c.Subgroups, c.SubgroupSize)
	}
}

// The dump/replay loop the CLI offers: a passing campaign dumped with
// -dump must re-execute from its replay file to the same verdict.
func TestDumpedScheduleReplays(t *testing.T) {
	c := campaign(4, 10, "mixed", "raft-kv", "paper", "", 5, 3, 3)
	c.SACRounds = -1 // keep the smoke test quick
	rep := c.Run()
	if !rep.Passed() {
		t.Fatalf("campaign failed: %v", rep.Violations)
	}
	path := filepath.Join(t.TempDir(), "replay.json")
	if err := chaos.WriteReplay(path, rep); err != nil {
		t.Fatal(err)
	}
	c2, actions, err := chaos.LoadReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := c2.Execute(actions)
	if !rep2.Passed() {
		t.Fatalf("replay failed: %v", rep2.Violations)
	}
	if rep2.Stats != rep.Stats {
		t.Fatalf("replay stats %+v differ from original %+v", rep2.Stats, rep.Stats)
	}
}

// TestTrackRegistry: every -track name the docs promise is a runnable
// row, and the two oracle mixes arm their oracle at the width of the
// track of the same name.
func TestTrackRegistry(t *testing.T) {
	for _, name := range []string{"faults", "wan", "churn", "shard", "byzantine", "compose"} {
		if tr, ok := tracks[name]; !ok || tr.run == nil || tr.seeds < 1 {
			t.Errorf("track %q: missing from the registry, or no run function or sweep width", name)
		}
	}
	if c := mixes["byzantine"]; c.ByzantineRounds != 2 {
		t.Errorf("-mix byzantine arms %d oracle rounds, want 2", c.ByzantineRounds)
	}
	if c := mixes["churn"]; c.ChurnRounds != 3 {
		t.Errorf("-mix churn arms %d oracle episodes, want 3", c.ChurnRounds)
	}
}

// TestShardTrackCountsItsStats runs one seed of a counting track through
// the registry: the exercised counters come back in stats order.
func TestShardTrackCountsItsStats(t *testing.T) {
	tr := tracks["shard"]
	passed, exercised := tr.run(chaos.Campaign{Seed: 42, Steps: 24, Target: chaos.TargetTwoLayer}, false)
	if !passed || len(exercised) != len(tr.stats) {
		t.Fatalf("shard seed 42: passed=%v exercised=%v for stats %v", passed, exercised, tr.stats)
	}
	if exercised[0] == 0 {
		t.Fatal("shard seed 42 split nothing (the grow-burst boundary guarantees a split)")
	}
}
