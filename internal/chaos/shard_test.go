package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// TestShardOracleSweep runs the shard oracle over a seed sweep under
// every profile (the track's twelve seeds under paper, four under the
// others): each seed's three episodes must stay green on every boundary and accuracy
// invariant — shard-vacuous included, so every episode split and merged
// — and what it counts as splits and merges must be what the control
// plane itself counted executing.
func TestShardOracleSweep(t *testing.T) {
	for profile, seeds := range map[cluster.Profile]int64{cluster.Paper: 12, cluster.LAN: 4, cluster.WAN: 4} {
		joins, departs := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			c := Campaign{Seed: seed, Profile: profile, Telemetry: telemetry.New()}
			rep := ShardOracle(c)
			if len(rep.Violations) > 0 {
				t.Fatalf("%v seed %d: %d violations, first: %s", profile, seed, len(rep.Violations), rep.Violations[0])
			}
			executed := c.Telemetry.Snapshot().Counters
			if s := rep.Stats; s.Splits < 3 || s.Merges < 3 ||
				int64(s.Splits) != executed["cluster/shard/splits"] || int64(s.Merges) != executed["cluster/shard/merges"] {
				t.Fatalf("%v seed %d: the oracle counts %d splits, %d merges over 3 episodes; the cluster executed %d and %d",
					profile, seed, s.Splits, s.Merges, executed["cluster/shard/splits"], executed["cluster/shard/merges"])
			}
			joins += rep.Stats.Joins
			departs += rep.Stats.Departs
		}
		if joins == 0 || departs == 0 {
			t.Fatalf("%v sweep exercised %d joins, %d departs — membership must actually change", profile, joins, departs)
		}
	}
}

// TestShardOracleDeterministic pins seed-replayability: two runs off one
// campaign serialize to the same Report, byte for byte.
func TestShardOracleDeterministic(t *testing.T) {
	a, _ := json.Marshal(ShardOracle(Campaign{Seed: 42}))
	b, _ := json.Marshal(ShardOracle(Campaign{Seed: 42}))
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}
