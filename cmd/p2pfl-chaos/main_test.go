package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
)

func TestCampaignFlagMapping(t *testing.T) {
	c := campaign(9, 12, "crash", "paper", "", 2, 4)
	if c.Seed != 9 || c.Steps != 12 || c.Subgroups != 2 || c.SubgroupSize != 4 {
		t.Fatalf("campaign = %+v", c)
	}
	if c.Mix != chaos.CrashHeavyMix || c.Profile != cluster.Paper {
		t.Fatalf("mix/profile = %v/%v", c.Mix, c.Profile)
	}
	c = campaign(1, 8, "partition", "wan", "wan50", 3, 3)
	if c.Mix != chaos.PartitionHeavyMix {
		t.Fatalf("mix = %v", c.Mix)
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
	c := campaign(4, 10, "mixed", "paper", "", 3, 3)
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
// row.
func TestTrackRegistry(t *testing.T) {
	for _, name := range []string{"faults", "wan", "churn", "shard", "byzantine", "compose"} {
		if tr, ok := tracks[name]; !ok || tr.run == nil || tr.seeds < 1 {
			t.Errorf("track %q: missing from the registry, or no run function or sweep width", name)
		}
	}
}

// TestEveryTrackCountsItsStats runs the first seed of every track through
// the registry at the default flags: it passes, and the exercised
// counters come back in stats order.
func TestEveryTrackCountsItsStats(t *testing.T) {
	base := campaign(1, 24, "mixed", "paper", "", 3, 3)
	for name, tr := range tracks {
		t.Run(name, func(t *testing.T) {
			if name == "compose" && testing.Short() {
				t.Skip("compose runs 60 campaigns a seed")
			}
			passed, exercised := tr.run(base, false)
			if !passed || len(exercised) != len(tr.stats) {
				t.Fatalf("seed 1: passed=%v exercised=%v for stats %v", passed, exercised, tr.stats)
			}
			if name == "shard" && exercised[0] == 0 {
				t.Fatal("shard seed 1 split nothing (the grow-burst boundary guarantees a split)")
			}
		})
	}
}

// TestConfigViolationIsNotMinimized: a campaign refused for its config
// (here a byzantine mix on subgroups of three) stays red, and no
// schedule can change that, so it is neither minimized nor written out
// as a replay file — not even under -dump.
func TestConfigViolationIsNotMinimized(t *testing.T) {
	defer func(o string, d bool) { *out, *dump = o, d }(*out, *dump)
	*out, *dump = filepath.Join(t.TempDir(), "replay.json"), true
	rep := schedule(campaign(1, 24, "byzantine", "paper", "", 3, 3), false)
	if rep.Passed() || len(rep.Violations) != 1 || rep.Violations[0].Invariant != "config" {
		t.Fatalf("violations %v, want the one config violation", rep.Violations)
	}
	if len(rep.Actions) != 24 {
		t.Fatalf("report holds %d actions, want the 24 scheduled (not a minimized schedule)", len(rep.Actions))
	}
	if _, err := os.Stat(*out); !os.IsNotExist(err) {
		t.Fatalf("replay file written for a config violation (stat: %v)", err)
	}
}
