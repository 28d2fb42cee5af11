package chaos

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sac"
	"repro/internal/simnet"
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
	rep := Campaign{Seed: 1, Steps: 24, Mix: CrashHeavyMix}.Run()
	requireClean(t, rep)
	if rep.Stats.Crashes == 0 {
		t.Fatal("crash-heavy campaign performed no crashes")
	}
	if rep.Stats.SACRounds != 1 {
		t.Fatal("no aggregation round completed after quiesce")
	}
}

func TestPartitionHeavyCampaign(t *testing.T) {
	rep := Campaign{Seed: 2, Steps: 24, Mix: PartitionHeavyMix}.Run()
	requireClean(t, rep)
	if rep.Stats.Partitions == 0 {
		t.Fatal("partition-heavy campaign created no partitions")
	}
	if rep.Stats.SACRounds != 1 {
		t.Fatal("no aggregation round completed after quiesce")
	}
}

func TestMixedCampaign(t *testing.T) {
	rep := Campaign{Seed: 3, Steps: 30}.Run() // zero Mix → DefaultMix
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
	c := Campaign{Seed: 7, Steps: 20}
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
	if reflect.DeepEqual(c.Generate(), Campaign{Seed: 8, Steps: 20}.Generate()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Subgroup + FedAvg faults, then a full aggregation round with the
// elected leaders.
func TestTwoLayerCampaign(t *testing.T) {
	rep := Campaign{Seed: 11, Steps: 12, Subgroups: 3, SubgroupSize: 3}.Run()
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
	c := Campaign{Seed: 5, Steps: 24, Mix: CrashHeavyMix, extraCheckers: []checker{lowTerm}}

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
	rep := Campaign{Seed: 42, Steps: 6}.Execute(nil)
	requireClean(t, rep)
	if rep.Stats.LeaderChanges < 4 || rep.Stats.SACRounds != 1 {
		t.Fatalf("baseline run elected %d leaders (want one per subgroup and the FedAvg layer) and ran %d aggregation rounds",
			rep.Stats.LeaderChanges, rep.Stats.SACRounds)
	}
}

// Replay files must round-trip campaign configuration exactly.
func TestReplayRoundTrip(t *testing.T) {
	c := Campaign{Seed: 9, Steps: 8, Mix: PartitionHeavyMix, SubgroupSize: 4}
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

// A fault mix whose actions the cluster cannot carry out would pass
// vacuously: a subgroup of fewer than four peers takes no adversary
// mark unless churn can grow it. Such a campaign reports a config
// violation.
func TestVacuousMixIsAConfigViolation(t *testing.T) {
	c := Campaign{Seed: 1, Steps: 24, Mix: ByzantineMix, SubgroupSize: 3}
	if rep := c.Run(); len(rep.Violations) != 1 || rep.Violations[0].Invariant != "config" {
		t.Errorf("mix %+v with n = %d: violations %v, want one config violation", c.Mix, c.SubgroupSize, rep.Violations)
	}
	// Churn can grow a subgroup to four, and n = 4 hosts a mark.
	for _, c := range []Campaign{
		{Seed: 1, Steps: 24, Mix: FaultMix{Byzantine: 1, Churn: 1}, SubgroupSize: 3},
		{Seed: 1, Steps: 24, Mix: ByzantineMix},
	} {
		if rep := c.Run(); !rep.Passed() {
			t.Errorf("mix %+v with n = %d: %v", c.Mix, c.SubgroupSize, rep.Violations)
		}
	}
}

// TestCommitBoundFires plants a live node whose commit index runs past
// its log: the commit-bound check every sweep runs reports it, and
// neither a node within its log nor a crashed one.
func TestCommitBoundFires(t *testing.T) {
	v := view{NowUs: 7, Nodes: []nodeView{
		{ID: 1, Group: "sub0", Commit: 4, LastIndex: 4},
		{ID: 2, Group: "fed", Commit: 5, LastIndex: 3},
		{ID: 3, Group: "sub1", Commit: 9, LastIndex: 2, Down: true},
	}}
	rep := &Report{}
	newLedger(rep).runExtra([]checker{commitBound}, v)
	want := Violation{AtUs: 7, Invariant: "commit-bound", Detail: "group fed node 2 commit index 5 beyond last log index 3"}
	if len(rep.Violations) != 1 || rep.Violations[0] != want {
		t.Fatalf("violations %v, want [%v]", rep.Violations, want)
	}
}

// TestLeaderlessFedAvgLayerIsALivenessViolation: the post-quiesce round
// is led by the FedAvg layer's elected leader. Once the FedAvg leader of
// a bootstrapped 3×3 cluster crashes and its subgroup has re-elected,
// every subgroup has a leader but the FedAvg layer has none yet; the
// round reports that as a liveness violation of its own and runs nothing.
func TestLeaderlessFedAvgLayerIsALivenessViolation(t *testing.T) {
	c := Campaign{Seed: 1}.normalize()
	rep := &Report{Campaign: c}
	sys := newCluster(c)
	w := &twWorld{c: c, rep: rep, led: newLedger(rep), sys: sys, m: sys.NumSubgroups(), byz: make(map[int]sac.AdversaryPlan)}
	if err := sys.Bootstrap(60 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashPeer(sys.FedAvgLeader()); err != nil {
		t.Fatal(err)
	}
	sys.Sim.RunWhileNot(func() bool { return !slices.Contains(sys.RoundGeometry().Leaders, -1) }, sys.Sim.Now()+simnet.Time(10*simnet.Second))
	if geo := sys.RoundGeometry(); slices.Contains(geo.Leaders, -1) || geo.FedLeader >= 0 {
		t.Fatalf("geometry %+v: want every subgroup led and the FedAvg layer not", geo)
	}
	w.aggregationRound()
	if len(rep.Violations) != 1 || rep.Violations[0].Invariant != "liveness" || !strings.Contains(rep.Violations[0].Detail, "FedAvg layer") || rep.Stats.SACRounds != 0 {
		t.Fatalf("violations %v after %d rounds, want one FedAvg-layer liveness violation and no round", rep.Violations, rep.Stats.SACRounds)
	}
}
