package chaos

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The shard oracle (Campaign.ShardRounds) is the accuracy proof for
// elastic sharding: splitting an oversized subgroup or merging an
// undersized one must be invisible to training. Each episode bootstraps a
// real two-subgroup cluster.System (see churnoracle.go for the episode
// machinery), grows and shrinks it through AddPeer and DepartPeer at
// round boundaries, lets cluster.Rebalance — the one copy of the
// split/merge policy — re-shard it, and aggregates each round's models
// twice: under the elastic geometry read off the system and under a
// static two-way partition of the same membership. The healthy degree
// is 5 or 6 because graceful departures reach the merge trigger only
// for n ≥ 5 (cluster.ShardPlan). Invariants, on top of the boundary
// checks every episode runs (directory-convergence,
// share-index-soundness, model-handoff, shard-liveness):
//
//   - shard-balance: after Rebalance the planner is quiet (ShardPlan
//     returns nil) and every live subgroup respects the size bounds (none
//     above 2n−1, none below n/2 unless it is the only one).
//   - shard-vacuous (sharpness): every episode performs at least one
//     split and one merge, each an action cluster.Rebalance executed.
//   - shard-accuracy: the elastic round's global equals the static
//     round's global — the partition of the same membership cannot move
//     the FedAvg mean — and both equal the plaintext mean
//     (sac-exactness).
//
// Everything derives from Campaign.Seed, so a red seed replays exactly.

// shardOracleRounds is the training-curve length per episode; its four
// boundaries are grow burst, mixed churn, shrink burst, mixed churn.
const shardOracleRounds = 5

// runShardOracle executes Campaign.ShardRounds elastic-sharding
// episodes.
func runShardOracle(c Campaign, rep *Report) {
	led := newLedger(rep)
	rng := rand.New(rand.NewSource(c.Seed*6779 + 11))
	for ep := 0; ep < c.ShardRounds; ep++ {
		shardEpisode(c, rep, led, rng, ep)
	}
}

func shardEpisode(c Campaign, rep *Report, led *ledger, rng *rand.Rand, ep int) {
	n := 5 + rng.Intn(2)   // healthy subgroup degree
	dim := 2 + rng.Intn(3) // small models keep campaigns fast
	e, ok := newEpisode(c, rep, led, "shard", fmt.Sprintf("shard episode %d (n=%d)", ep, n), 2, n, rng.Int63())
	if !ok {
		return
	}
	jitter := rand.New(rand.NewSource(rng.Int63()))
	seed := e.sys.RoundGeometry().Sizes
	elastic, ok1 := e.newAggregation(seed, rng.Int63())
	static, ok2 := e.newAggregation(seed, rng.Int63())
	if !ok1 || !ok2 {
		return
	}

	// What the episode counts as splits and merges are the actions
	// cluster.Rebalance reports having executed.
	splits, merges := 0, 0
	for round := 0; round < shardOracleRounds; round++ {
		if round > 0 {
			if !e.shardBoundary(rng, round) {
				return
			}
			acts, err := e.sys.Rebalance(oracleStepLimit)
			for _, act := range acts {
				switch act.Kind {
				case cluster.ShardSplit:
					splits++
					rep.Stats.Splits++
				case cluster.ShardMerge:
					merges++
					rep.Stats.Merges++
				}
			}
			if err != nil {
				e.fail("shard-liveness", "round %d: %v", round, err)
				return
			}
		}
		geo, ok := e.settle()
		if !ok || !e.balanced(round, geo, n) {
			return
		}

		// One model draw serves both runs: same members, same weights —
		// only the subgroup partition differs.
		models := churnModels(jitter, geo.Sizes, round, dim)
		e.install(geo, models)
		twoWay, err := core.SplitPeers(len(models), 2)
		if err != nil {
			e.fail("shard-accuracy", "round %d: %v", round, err)
			return
		}
		ge, ok1 := e.aggregate(elastic, "elastic", round, geo.Sizes, roundSpec(geo), models)
		gs, ok2 := e.aggregate(static, "static", round, twoWay, core.RoundSpec{}, models)
		if !ok1 || !ok2 {
			return
		}
		if d := firstBeyond(ge, gs, 2e-9); d >= 0 {
			e.fail("shard-accuracy", "round %d global[%d] differs %.3g between elastic and static partitions",
				round, d, math.Abs(ge[d]-gs[d]))
			return
		}
	}
	rep.Stats.SACRounds += 2 * shardOracleRounds
	// Sharpness: an episode that re-sharded nothing proved nothing about
	// re-sharding.
	if splits == 0 || merges == 0 {
		e.fail("shard-vacuous", "the grow and shrink bursts produced %d splits and %d merges — both paths must run", splits, merges)
	}
}

// shardBoundary applies one round boundary's membership changes: a grow
// burst into one subgroup at boundary 1, a shrink burst out of one at
// boundary 3, one or two random joins/leaves otherwise. A burst runs
// until ShardPlan asks for an action (or, shrinking, until the control
// plane refuses the departure): when a re-sharding is due is the
// planner's call, never this file's.
func (e *episode) shardBoundary(rng *rand.Rand, round int) bool {
	live := e.sys.RoundGeometry().Subgroups
	pick := func() int { return live[rng.Intn(len(live))] }
	switch round {
	case 1:
		for g := pick(); e.sys.ShardPlan() == nil; {
			if !e.join(g) {
				return false
			}
		}
	case 3:
		for g := pick(); e.sys.ShardPlan() == nil; {
			if departed, ok := e.depart(g, rng.Intn(1<<16)); !ok {
				return false
			} else if !departed {
				break
			}
		}
	default:
		for events := 1 + rng.Intn(2); events > 0; events-- {
			if !e.churnOne(pick(), rng.Intn(2) == 1, rng.Intn(1<<16)) {
				return false
			}
		}
	}
	return true
}

// balanced asserts shard-balance at a round start.
func (e *episode) balanced(round int, geo cluster.RoundGeometry, n int) bool {
	if plan := e.sys.ShardPlan(); plan != nil {
		return e.fail("shard-balance", "round %d: planner still asks for %+v after rebalancing (sizes %v)", round, *plan, geo.Sizes)
	}
	for i, size := range geo.Sizes {
		if size > 2*n-1 {
			return e.fail("shard-balance", "round %d subgroup %d holds %d > 2n−1 = %d members", round, geo.Subgroups[i], size, 2*n-1)
		}
		if 2*size < n && len(geo.Sizes) > 1 {
			return e.fail("shard-balance", "round %d subgroup %d holds %d < n/2 members unmerged", round, geo.Subgroups[i], size)
		}
	}
	return true
}
