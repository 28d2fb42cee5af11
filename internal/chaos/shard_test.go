package chaos

import (
	"encoding/json"
	"testing"
)

// shardCampaign is the elastic-sharding acceptance configuration: the
// shard oracle's equal-seed split-vs-static episodes on top of a short
// schedule.
func shardCampaign(seed int64) Campaign {
	return Campaign{Seed: seed, Steps: 1, SACRounds: -1, ShardRounds: 3}
}

// TestShardOracleSweep runs the split-vs-static accuracy oracle over a
// seed sweep: every episode must stay green on shard-balance,
// share-index-soundness and shard-accuracy, and the sweep as a whole
// must have exercised both the split and the merge path.
func TestShardOracleSweep(t *testing.T) {
	splits, merges, joins, departs := 0, 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rep := shardCampaign(seed).Run()
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: %d violations, first: %s", seed, len(rep.Violations), rep.Violations[0])
		}
		splits += rep.Stats.Splits
		merges += rep.Stats.Merges
		joins += rep.Stats.Joins
		departs += rep.Stats.Departs
	}
	if splits == 0 || merges == 0 {
		t.Fatalf("sweep exercised %d splits, %d merges — both re-sharding paths must occur", splits, merges)
	}
	if joins == 0 || departs == 0 {
		t.Fatalf("sweep exercised %d joins, %d departs — membership must actually change", joins, departs)
	}
}

// TestShardOracleDeterministic pins seed-replayability: identical
// campaigns agree on every stat and violation, and the fixed boundary
// schedule guarantees a split in every single campaign.
func TestShardOracleDeterministic(t *testing.T) {
	run := func() *Report { return shardCampaign(42).Run() }
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
	if a.Stats.Splits == 0 {
		t.Fatal("grow-burst boundary produced no split")
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
