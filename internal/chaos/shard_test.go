package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// shardCampaign is the elastic-sharding acceptance configuration: the
// shard oracle's elastic-vs-static episodes on real clusters, on top of
// a one-step schedule.
func shardCampaign(seed int64) Campaign {
	return Campaign{Seed: seed, Steps: 1, SACRounds: -1, ShardRounds: 3}
}

// TestShardOracleSweep runs the shard oracle over a seed sweep under
// every profile (the track's twelve seeds under paper, four under the
// others): each campaign must stay green on every boundary and accuracy
// invariant — shard-vacuous included, so every episode split and merged
// — and what it counts as splits and merges must be what the control
// plane itself counted executing.
func TestShardOracleSweep(t *testing.T) {
	for profile, seeds := range map[cluster.Profile]int64{cluster.Paper: 12, cluster.LAN: 4, cluster.WAN: 4} {
		joins, departs := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			c := shardCampaign(seed)
			c.Profile, c.Telemetry = profile, telemetry.New()
			rep := c.Run()
			if len(rep.Violations) > 0 {
				t.Fatalf("%v seed %d: %d violations, first: %s", profile, seed, len(rep.Violations), rep.Violations[0])
			}
			executed := c.Telemetry.Snapshot().Counters
			if s := rep.Stats; s.Splits < c.ShardRounds || s.Merges < c.ShardRounds ||
				int64(s.Splits) != executed["cluster/shard/splits"] || int64(s.Merges) != executed["cluster/shard/merges"] {
				t.Fatalf("%v seed %d: campaign counts %d splits, %d merges over %d episodes; the cluster executed %d and %d",
					profile, seed, s.Splits, s.Merges, c.ShardRounds, executed["cluster/shard/splits"], executed["cluster/shard/merges"])
			}
			joins += rep.Stats.Joins
			departs += rep.Stats.Departs
		}
		if joins == 0 || departs == 0 {
			t.Fatalf("%v sweep exercised %d joins, %d departs — membership must actually change", profile, joins, departs)
		}
	}
}

// TestShardOracleDeterministic pins seed-replayability: two runs of one
// campaign serialize to the same Report, byte for byte.
func TestShardOracleDeterministic(t *testing.T) {
	a, _ := json.Marshal(shardCampaign(42).Run())
	b, _ := json.Marshal(shardCampaign(42).Run())
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestShardRoundsSerialize checks the shard oracle width survives a campaign
// JSON round-trip, so replay files capture the oracle configuration.
func TestShardRoundsSerialize(t *testing.T) {
	c := Campaign{Seed: 7, ShardRounds: 5}
	buf, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Campaign
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.ShardRounds != 5 {
		t.Fatalf("round-tripped campaign %+v lost the shard oracle width", back)
	}
}
