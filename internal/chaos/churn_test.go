package chaos

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// churnCampaign is the continuous-churn acceptance configuration: full
// two-layer schedules drawn from ChurnMix (joins, graceful departures,
// same-identity handoffs interleaved with crashes and leader kills) with
// the failure detector armed. The churn track runs the churn oracle's
// episodes, the round-boundary reconfiguration path, off it too.
func churnCampaign(seed int64) Campaign {
	return Campaign{
		Seed:    seed,
		Steps:   24,
		Target:  TargetTwoLayer,
		Mix:     ChurnMix,
		Profile: cluster.LAN,
	}
}

// TestChurnCampaignSweep is the headline acceptance run: twenty seeds
// of continuous churn against the live control plane plus the churn
// oracle, every invariant green — directory convergence, share-index
// soundness and churn accuracy included — and with enough actual
// membership change to prove the checkers saw churn.
func TestChurnCampaignSweep(t *testing.T) {
	joins, departs, handoffs := 0, 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		c := churnCampaign(seed)
		for _, rep := range []*Report{c.Run(), ChurnOracle(c)} {
			if len(rep.Violations) > 0 {
				t.Fatalf("seed %d: %d violations, first: %s", seed, len(rep.Violations), rep.Violations[0])
			}
			joins += rep.Stats.Joins
			departs += rep.Stats.Departs
			handoffs += rep.Stats.Handoffs
		}
	}
	if joins == 0 || departs == 0 || handoffs == 0 {
		t.Fatalf("sweep exercised %d joins, %d departs, %d handoffs — every kind must occur", joins, departs, handoffs)
	}
}

// TestSeed11OverlappingMembershipChanges is the cell of the composition
// sweep (p2pfl-chaos -seed 11 -target two-layer -topology wan50 -mix
// churn -n 4) whose overlapping joins and departures once gave subgroup
// 2 two leaders in term 50: raft admitted a second configuration change
// while the first was uncommitted, and the retry loops appended one
// duplicate per poll on top. election-safety and conf-change-serial both
// watch it now.
func TestSeed11OverlappingMembershipChanges(t *testing.T) {
	c := Campaign{Seed: 11, Steps: 24, Target: TargetTwoLayer, Mix: ChurnMix, SubgroupSize: 4, Topology: "wan50"}
	rep := c.Run()
	if !rep.Passed() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	if rep.Stats.Joins == 0 || rep.Stats.Departs == 0 {
		t.Fatalf("schedule changed no membership: %+v", rep.Stats)
	}
}

// TestSeed19JoinerFindsTheFedAvgLeader is the cell of the composition
// sweep (p2pfl-chaos -seed 19 -target two-layer -topology wan50 -mix
// churn -n 4) whose new subgroup leader polled forever for the FedAvg
// leader: the layer's membership only grows, so its leader had lost its
// own subgroup, and neither the joiner's committed configuration nor
// the current subgroup leaders named it. fedavg-join watches it now, and
// a follower's redirect is what turns it green.
func TestSeed19JoinerFindsTheFedAvgLeader(t *testing.T) {
	c := Campaign{Seed: 19, Steps: 24, Target: TargetTwoLayer, Mix: ChurnMix, SubgroupSize: 4, Topology: "wan50"}
	rep := c.Run()
	if !rep.Passed() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	if rep.Stats.Joins == 0 || rep.Stats.Departs == 0 {
		t.Fatalf("schedule changed no membership: %+v", rep.Stats)
	}
}

// TestChurnOracleDeterministic pins seed-replayability of the oracle
// under every profile: two runs off one campaign serialize to the same
// Report, byte for byte, and the episodes changed the membership.
func TestChurnOracleDeterministic(t *testing.T) {
	for _, profile := range []cluster.Profile{cluster.Paper, cluster.LAN, cluster.WAN} {
		c := Campaign{Seed: 42, Profile: profile}
		rep := ChurnOracle(c)
		if !rep.Passed() {
			t.Fatalf("%v: %v", profile, rep.Violations)
		}
		a, _ := json.Marshal(rep)
		b, _ := json.Marshal(ChurnOracle(c))
		if string(a) != string(b) {
			t.Fatalf("%v: same seed diverged:\n%s\nvs\n%s", profile, a, b)
		}
		if rep.Stats.Joins == 0 || rep.Stats.Departs == 0 {
			t.Fatalf("%v: oracle episodes applied %d joins, %d departs", profile, rep.Stats.Joins, rep.Stats.Departs)
		}
	}
}

// TestChurnOracleHandsModelsOff drives one episode's departure step by
// hand: the departed peer's round model must sit in a staying
// co-member's Inherited() bit for bit, and a departure the control
// plane refuses (its floor) is a refusal, not a violation.
func TestChurnOracleHandsModelsOff(t *testing.T) {
	rep := &Report{}
	e, ok := newEpisode(Campaign{}.normalize(), rep, newLedger(rep), "churn", "handoff", 2, 3, 7)
	if !ok {
		t.Fatal(rep.Violations)
	}
	geo, ok := e.settle()
	if !ok {
		t.Fatal(rep.Violations)
	}
	models := churnModels(rand.New(rand.NewSource(1)), geo.Sizes, 0, 3)
	e.install(geo, models)
	victim := e.sys.SubgroupPeers(0)[1]
	if departed, ok := e.depart(0, 1); !departed || !ok {
		t.Fatalf("departure of peer %d: departed=%v violations=%v", victim, departed, rep.Violations)
	}
	heir := e.sys.Peer(e.sys.SubgroupPeers(0)[0])
	if !sameBits(heir.Inherited(), models[1]) {
		t.Fatalf("peer %d inherited %v, want %v", heir.ID, heir.Inherited(), models[1])
	}
	if rep.Stats.Departs != 1 || e.sys.Peer(victim) != nil {
		t.Fatalf("departs=%d, peer %d still present=%v", rep.Stats.Departs, victim, e.sys.Peer(victim) != nil)
	}
	if departed, ok := e.depart(0, 0); departed || !ok {
		t.Fatalf("departure below the floor: departed=%v ok=%v", departed, ok)
	}
	if len(rep.Violations) != 0 {
		t.Fatal(rep.Violations)
	}
}

// TestChurnReplayRoundTrip dumps a churn campaign to a replay file and
// re-executes it from disk: the profile and the ActChurn actions must
// survive serialization and reproduce the identical verdict and stats.
func TestChurnReplayRoundTrip(t *testing.T) {
	c := churnCampaign(3)
	rep := c.Run()
	if !rep.Passed() {
		t.Fatalf("campaign failed: %v", rep.Violations)
	}
	path := filepath.Join(t.TempDir(), "churn-replay.json")
	if err := WriteReplay(path, rep); err != nil {
		t.Fatal(err)
	}
	lc, actions, err := LoadReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Profile != cluster.LAN {
		t.Fatal("profile lost in the replay file")
	}
	churns := 0
	for _, a := range actions {
		if a.Kind == ActChurn {
			churns++
		}
	}
	if churns == 0 {
		t.Fatal("replay file carries no ActChurn actions")
	}
	rep2 := lc.Execute(actions)
	aj, _ := json.Marshal(struct {
		S Stats
		V []Violation
	}{rep.Stats, rep.Violations})
	bj, _ := json.Marshal(struct {
		S Stats
		V []Violation
	}{rep2.Stats, rep2.Violations})
	if string(aj) != string(bj) {
		t.Fatalf("replayed run diverged from the original:\n%s\nvs\n%s", aj, bj)
	}
}

// TestChurnTelemetryDeterministic is the churn half of the telemetry
// determinism regression: equal-seed churn campaigns against fresh
// registries serialize to byte-identical snapshots (virtual-time clock,
// deterministic control plane), different seeds do not, and the churn
// counters actually reach the registry.
func TestChurnTelemetryDeterministic(t *testing.T) {
	run := func(seed int64) ([]byte, *telemetry.Registry) {
		reg := telemetry.New()
		c := churnCampaign(seed)
		c.Telemetry = reg
		if rep, oracle := c.Run(), ChurnOracle(c); !rep.Passed() || !oracle.Passed() {
			t.Fatalf("seed %d campaign or churn oracle failed: %v %v", seed, rep.Violations, oracle.Violations)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), reg
	}
	a, rega := run(2)
	b, _ := run(2)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical seeds produced different telemetry JSON:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if c, _ := run(4); bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical telemetry")
	}
	snap := rega.Snapshot()
	if snap.Counters["cluster/churn/joins"] == 0 && snap.Counters["cluster/churn/departs"] == 0 {
		t.Error("no cluster churn counters reached the registry")
	}
	if snap.Counters["cluster/churn/directory_applied"] == 0 {
		t.Error("no committed directory updates reached the registry")
	}
}

// TestChurnScheduleProperties checks the generator: ChurnMix emits
// ActChurn actions, and every legacy mix — ByzantineMix now included —
// keeps its exact roll mapping, never emitting one.
func TestChurnScheduleProperties(t *testing.T) {
	c := Campaign{Seed: 6, Steps: 60, Target: TargetTwoLayer, Mix: ChurnMix}
	churns := 0
	for _, a := range c.Generate() {
		if a.Kind == ActChurn {
			churns++
		}
	}
	if churns == 0 {
		t.Fatal("ChurnMix generated no ActChurn actions in 60 steps")
	}
	for _, mix := range []FaultMix{DefaultMix, CrashHeavyMix, PartitionHeavyMix, FlappingMix, ByzantineMix} {
		for _, a := range (Campaign{Seed: 9, Steps: 40, Mix: mix}).Generate() {
			if a.Kind == ActChurn {
				t.Fatalf("legacy mix %+v generated an ActChurn action", mix)
			}
		}
	}
}
