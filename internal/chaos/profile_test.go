package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestTwoLayerCampaignPerProfile runs full two-layer fault campaigns
// under each non-paper profile (TestTwoLayerCampaign covers paper): lan
// against the flapping mix its detector exists for, wan on the wan50
// topology — the raft flags and the RTT tuner armed on the whole cluster
// while faults land. The last two rows pin schedules that used to fail:
//
//   - wan, seed 15: three peers joined the FedAvg layer and crashed
//     before their fed nodes' first Pump; simnet refused to restart a
//     host with no persisted state, so the layer's own log counted three
//     unreachable members towards its quorum and stayed leaderless
//     through quiesce.
//   - lan, seed 6: a partition healed at quiesce exposed a stale subgroup
//     leader that was deposed between the liveness wait and the
//     aggregation round, which then read "no leader".
func TestTwoLayerCampaignPerProfile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     Campaign
		seeds []int64
	}{
		{"lan/flap", Campaign{Steps: 24, Mix: FlappingMix, Profile: cluster.LAN}, []int64{1, 2, 3, 4, 5, 6}},
		{"wan/wan50", Campaign{Steps: 24, Topology: "wan50", Profile: cluster.WAN}, []int64{1, 2, 3, 4, 5, 6}},
		{"wan/unpersisted-fed-nodes", Campaign{Steps: 24, SubgroupSize: 4, Profile: cluster.WAN}, []int64{15}},
		{"lan/stale-leader-at-quiesce", Campaign{Steps: 24, SubgroupSize: 4, Profile: cluster.LAN}, []int64{6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := 0
			for _, seed := range tc.seeds {
				c := tc.c
				c.Seed, c.Target = seed, TargetTwoLayer
				rep := c.Run()
				requireClean(t, rep)
				if rep.Stats.SACRounds != 1 {
					t.Fatalf("seed %d: post-quiesce aggregation round did not run", seed)
				}
				faults += rep.Stats.Crashes + rep.Stats.Partitions + rep.Stats.NetFaults + rep.Stats.Flaps
			}
			if faults == 0 {
				t.Fatal("campaigns injected no faults")
			}
		})
	}
}

// TestRaftKVCampaignTakesProfileFlags: the single-group target runs the
// profile's raft flags too, and stays green with them under faults.
func TestRaftKVCampaignTakesProfileFlags(t *testing.T) {
	rep := Campaign{Seed: 5, Steps: 24, Topology: "wan50", Profile: cluster.WAN}.Run()
	requireClean(t, rep)
	if rep.Stats.Commits == 0 {
		t.Fatal("campaign committed nothing")
	}
}

// TestLoadReplayIsStrict: a replay file carrying a key this build does
// not know — written before the mode booleans became Profile, or hand-
// edited with a typo — must fail to load and name the key. Dropping it
// silently would re-execute the schedule under the paper profile and
// report a different verdict as a faithful replay.
func TestLoadReplayIsStrict(t *testing.T) {
	for key, file := range map[string]string{
		"pre_vote": `{"campaign": {"seed": 3, "steps": 12, "target": "two-layer", "pre_vote": true, "detector": true}, "actions": []}`,
		"profil":   `{"campaign": {"seed": 3, "steps": 12, "profil": "lan"}, "actions": []}`,
		"rnak":     `{"campaign": {"seed": 3}, "actions": [{"step": 0, "kind": "crash", "rnak": 2}]}`,
	} {
		path := filepath.Join(t.TempDir(), "replay.json")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadReplay(path); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("replay with unknown key %q: err = %v, want an error naming it", key, err)
		}
	}
	path := filepath.Join(t.TempDir(), "replay.json")
	if err := os.WriteFile(path, []byte(`{"campaign": {"seed": 3, "profile": "lna"}, "actions": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadReplay(path); err == nil || !strings.Contains(err.Error(), "lna") {
		t.Errorf("replay with a misspelled profile: err = %v", err)
	}
}

// TestNoModeBooleans guards the design rule behind Profile: what a
// campaign's nodes do is selected by one named value and each oracle by
// its round count, so neither options struct may grow a free on/off
// switch again.
func TestNoModeBooleans(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Campaign{}), reflect.TypeOf(StabilityOptions{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Bool {
				t.Errorf("chaos.%s.%s is a bool: select behaviour through Profile (or a round count) instead", typ.Name(), f.Name)
			}
		}
	}
}
