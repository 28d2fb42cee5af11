package chaos

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// requireClean fails the test with the full violation list when a
// campaign that must pass did not.
func requireClean(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Passed() {
		return
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Fatalf("campaign seed=%d failed with %d violations", rep.Campaign.Seed, len(rep.Violations))
}

// The three seeded campaigns the acceptance criteria name: crash-heavy,
// partition-heavy and mixed. Each must run green and must actually have
// exercised its fault class (a schedule of no-ops proves nothing).

func TestCrashHeavyCampaign(t *testing.T) {
	rep := Campaign{Seed: 1, Steps: 24, Mix: CrashHeavyMix, Nodes: 5}.Run()
	requireClean(t, rep)
	if rep.Stats.Crashes == 0 {
		t.Fatal("crash-heavy campaign performed no crashes")
	}
	if rep.Stats.Commits == 0 {
		t.Fatal("campaign committed nothing")
	}
}

func TestPartitionHeavyCampaign(t *testing.T) {
	rep := Campaign{Seed: 2, Steps: 24, Mix: PartitionHeavyMix, Nodes: 5}.Run()
	requireClean(t, rep)
	if rep.Stats.Partitions == 0 {
		t.Fatal("partition-heavy campaign created no partitions")
	}
	if rep.Stats.Commits == 0 {
		t.Fatal("campaign committed nothing")
	}
}

func TestMixedCampaign(t *testing.T) {
	rep := Campaign{Seed: 3, Steps: 30, Nodes: 5}.Run() // zero Mix → DefaultMix
	requireClean(t, rep)
	if rep.Stats.Crashes+rep.Stats.Partitions+rep.Stats.NetFaults == 0 {
		t.Fatal("mixed campaign injected no faults")
	}
	if sac := SACOracle(Campaign{Seed: 3}); !sac.Passed() || sac.Stats.SACRounds != 3 {
		t.Fatalf("SAC oracle ran %d rounds, violations %v", sac.Stats.SACRounds, sac.Violations)
	}
}

// Same seed ⇒ identical schedule and identical verdict, byte for byte.
func TestSameSeedSameScheduleAndVerdict(t *testing.T) {
	c := Campaign{Seed: 7, Steps: 20, Nodes: 5}
	if !reflect.DeepEqual(c.Generate(), c.Generate()) {
		t.Fatal("Generate is not deterministic")
	}
	a, b := c.Run(), c.Run()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("same seed produced different reports:\n%s\nvs\n%s", ja, jb)
	}
	// And a different seed must not degenerate to the same schedule.
	if reflect.DeepEqual(c.Generate(), Campaign{Seed: 8, Steps: 20, Nodes: 5}.Generate()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// The two-layer target: subgroup + FedAvg faults, then a full aggregation
// round with the elected leaders.
func TestTwoLayerCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("two-layer campaign is slow in -short mode")
	}
	rep := Campaign{Seed: 11, Steps: 12, Target: TargetTwoLayer, Subgroups: 3, SubgroupSize: 3}.Run()
	requireClean(t, rep)
	if rep.Stats.SACRounds == 0 {
		t.Fatal("no aggregation round completed after quiesce")
	}
}

// A deliberately broken invariant must be (a) caught, (b) minimized to a
// smaller schedule that still fails, and (c) reproducible from its
// replay file.
func TestBrokenInvariantCaughtMinimizedReplayed(t *testing.T) {
	// "No node's term ever exceeds 3" is false under any schedule with
	// leader churn — a stand-in for a real protocol bug with a known
	// fault-dependent trigger.
	lowTerm := checker{Name: "max-term", Check: func(v view) []string {
		var out []string
		for _, n := range v.Nodes {
			if n.Term > 3 {
				out = append(out, fmt.Sprintf("node %d reached term %d", n.ID, n.Term))
			}
		}
		return out
	}}
	c := Campaign{Seed: 5, Steps: 24, Mix: CrashHeavyMix, Nodes: 5, extraCheckers: []checker{lowTerm}}

	full := c.Generate()
	rep := c.Execute(full)
	if rep.Passed() {
		t.Fatal("broken invariant was not caught")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == "max-term" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v do not name the broken checker", rep.Violations)
	}

	min, minRep := Minimize(c, full, 40)
	if minRep.Passed() {
		t.Fatal("minimized schedule no longer fails")
	}
	if len(min) >= len(full) {
		t.Fatalf("minimization did not shrink the schedule: %d → %d actions", len(full), len(min))
	}

	path := filepath.Join(t.TempDir(), "replay.json")
	if err := WriteReplay(path, minRep); err != nil {
		t.Fatal(err)
	}
	rc, ractions, err := LoadReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ractions, min) {
		t.Fatal("replay file did not round-trip the schedule")
	}
	// Checkers are code, not data: re-attach before re-executing.
	rc.extraCheckers = []checker{lowTerm}
	again := rc.Execute(ractions)
	if again.Passed() {
		t.Fatal("replayed schedule did not reproduce the failure")
	}
	if !reflect.DeepEqual(again.Violations, minRep.Violations) {
		t.Fatalf("replay verdict differs:\n%v\nvs\n%v", again.Violations, minRep.Violations)
	}
}

// An empty schedule is the no-fault baseline: it must always pass, and
// liveness must still be exercised.
func TestNoFaultBaseline(t *testing.T) {
	rep := Campaign{Seed: 42, Steps: 6, Nodes: 3}.Execute(nil)
	requireClean(t, rep)
	if rep.Stats.Commits == 0 {
		t.Fatal("baseline run committed nothing")
	}
}

// Replay files must round-trip campaign configuration exactly.
func TestReplayRoundTrip(t *testing.T) {
	c := Campaign{Seed: 9, Steps: 8, Mix: PartitionHeavyMix, Nodes: 4}
	rep := c.Run()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteReplay(path, rep); err != nil {
		t.Fatal(err)
	}
	rc, actions, err := LoadReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc, c) {
		t.Fatalf("campaign round-trip: %+v vs %+v", rc, c)
	}
	if !reflect.DeepEqual(actions, rep.Actions) {
		t.Fatal("actions round-trip mismatch")
	}
	again := rc.Execute(actions)
	if again.Passed() != rep.Passed() {
		t.Fatal("replayed verdict differs from original")
	}
}

// A fault mix whose actions the target cannot carry out would pass
// vacuously: raft-kv drops adversary marks and churn operations, and a
// subgroup of fewer than four peers takes no adversary mark unless
// churn can grow it. Each such campaign reports a config violation.
func TestVacuousMixIsAConfigViolation(t *testing.T) {
	for _, c := range []Campaign{
		{Seed: 1, Steps: 24, Mix: ByzantineMix},
		{Seed: 1, Steps: 24, Mix: ChurnMix},
		{Seed: 1, Steps: 24, Mix: ByzantineMix, Target: TargetTwoLayer, SubgroupSize: 3},
	} {
		rep := c.Run()
		if len(rep.Violations) != 1 || rep.Violations[0].Invariant != "config" {
			t.Errorf("mix %+v on %q with n = %d: violations %v, want one config violation",
				c.Mix, c.Target, c.SubgroupSize, rep.Violations)
		}
	}
	// Churn can grow a subgroup to four, and n = 4 hosts a mark.
	for _, c := range []Campaign{
		{Seed: 1, Steps: 24, Mix: FaultMix{Byzantine: 1, Churn: 1}, Target: TargetTwoLayer, SubgroupSize: 3},
		{Seed: 1, Steps: 24, Mix: ByzantineMix, Target: TargetTwoLayer},
	} {
		if rep := c.Run(); !rep.Passed() {
			t.Errorf("mix %+v with n = %d: %v", c.Mix, c.SubgroupSize, rep.Violations)
		}
	}
}
