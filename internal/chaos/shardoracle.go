package chaos

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/secretshare"
	"repro/internal/wire"
)

// The shard oracle (Campaign.ShardRounds) is the accuracy proof for elastic
// sharding: splitting an oversized subgroup or merging an undersized
// one must be invisible to training. Each episode runs two equal-seed
// deployments over the identical membership history — a static mirror
// that never re-shards, and an elastic mirror that applies the same
// split/merge policy the cluster uses (split above 2n−1 members, merge
// below n/2) at every round boundary — and aggregates the same models
// through both geometries. Invariants:
//
//   - shard-balance: after rebalancing, every live subgroup respects
//     the size bounds (no subgroup above 2n−1, none below n/2 unless it
//     is the only one), and rebalancing converges in bounded passes.
//   - share-index-soundness: a split re-registers its movers densely
//     and a merge re-registers at the target's lowest free slots, so no
//     subgroup ever holds a duplicate share index and each round's
//     k-of-n geometry covers all shares.
//   - shard-accuracy: the elastic run's global equals the static run's
//     global at every round — the partition of the same membership
//     cannot move the FedAvg mean — and both equal the plaintext mean
//     (sac-exactness).
//
// Everything derives from Campaign.Seed, so a red seed replays exactly.

const (
	// shardOracleRounds is the training-curve length per episode. The
	// boundary schedule within it is fixed (grow burst, mixed churn,
	// shrink burst, mixed churn), so every episode exercises at least
	// one split and, membership permitting, one merge.
	shardOracleRounds = 5
	// shardOraclePasses bounds the rebalance fixpoint loop. A split
	// never produces a merge candidate and a merge at most one split, so
	// real schedules settle in two or three passes.
	shardOraclePasses = 16
)

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
	n := 3 + rng.Intn(2)   // healthy subgroup degree
	dim := 2 + rng.Intn(3) // small models keep campaigns fast
	now := int64(ep)
	tag := fmt.Sprintf("shard episode %d (n=%d)", ep, n)

	// Two directory mirrors over the identical initial membership: the
	// static one keeps its two seed subgroups forever, the elastic one
	// re-shards at round boundaries.
	static, elastic := directory.New(), directory.New()
	nextID := uint64(1)
	for g := 0; g < 2; g++ {
		for i := 0; i < n; i++ {
			for _, d := range []*directory.Directory{static, elastic} {
				if _, err := d.Apply(wire.DirectoryUpdate{
					Op: wire.DirJoin, ID: nextID, Subgroup: g, ShareIndex: i,
					Addr: fmt.Sprintf("shard-%d", nextID),
				}); err != nil {
					led.violate(now, "share-index-soundness", tag+": seeding rejected: "+err.Error())
					return
				}
			}
			nextID++
		}
	}

	jitter := rand.New(rand.NewSource(rng.Int63()))
	sysElastic, err := core.NewSystem(core.Config{
		Sizes: shardSizes(elastic), K: kFor(shardSizes(elastic)), Telemetry: c.Telemetry,
	}, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		led.violate(now, "shard-accuracy", tag+": elastic config invalid: "+err.Error())
		return
	}
	sysStatic, err := core.NewSystem(core.Config{
		Sizes: shardSizes(static), K: kFor(shardSizes(static)), Telemetry: c.Telemetry,
	}, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		led.violate(now, "shard-accuracy", tag+": static config invalid: "+err.Error())
		return
	}

	for round := 0; round < shardOracleRounds; round++ {
		if round > 0 {
			nextID = shardBoundary(rep, rng, static, elastic, n, round, nextID)
			if !rebalanceMirror(rep, led, now, tag, elastic, n) {
				return
			}
			es, ss := shardSizes(elastic), shardSizes(static)
			if err := sysElastic.Reconfigure(es, kFor(es)); err != nil {
				led.violate(now, "share-index-soundness",
					fmt.Sprintf("%s: round %d elastic reconfigure rejected geometry %v: %v", tag, round, es, err))
				return
			}
			if err := sysStatic.Reconfigure(ss, kFor(ss)); err != nil {
				led.violate(now, "share-index-soundness",
					fmt.Sprintf("%s: round %d static reconfigure rejected geometry %v: %v", tag, round, ss, err))
				return
			}
		}
		if !checkShardRound(led, now, tag, round, static, elastic, n) {
			return
		}

		// One model draw serves both runs: same members, same weights —
		// only the subgroup partition differs.
		models := churnModels(jitter, shardSizes(elastic), round, dim)
		resE, err := sysElastic.AggregateRound(models, core.RoundSpec{})
		if err != nil {
			led.violate(now, "shard-accuracy",
				fmt.Sprintf("%s: round %d elastic aggregation failed: %v", tag, round, err))
			return
		}
		resS, err := sysStatic.AggregateRound(models, core.RoundSpec{})
		if err != nil {
			led.violate(now, "shard-accuracy",
				fmt.Sprintf("%s: round %d static aggregation failed: %v", tag, round, err))
			return
		}
		want := plainMean(models)
		for d := range want {
			if diff := math.Abs(resE.Global[d] - resS.Global[d]); diff > 2e-9 {
				led.violate(now, "shard-accuracy",
					fmt.Sprintf("%s: round %d global[%d] differs %.3g between elastic and static partitions",
						tag, round, d, diff))
				return
			}
			if math.Abs(resE.Global[d]-want[d]) > 1e-9 {
				led.violate(now, "sac-exactness",
					fmt.Sprintf("%s: round %d elastic global[%d] = %g, plaintext mean %g",
						tag, round, d, resE.Global[d], want[d]))
				return
			}
		}
	}
	rep.Stats.SACRounds += 2 * shardOracleRounds
}

// shardBoundary applies one round boundary's membership deltas to both
// mirrors — identical member sets, mirror-specific placement. The
// schedule is fixed by boundary index so every episode provably drives
// the split path (boundary 1) and the merge path (boundary 3):
//
//	boundary 1: grow burst — join peers until the elastic mirror's
//	            largest subgroup exceeds 2n−1 (forces a split)
//	boundary 3: shrink burst — drain the elastic mirror's smallest
//	            subgroup below n/2 (forces a merge), static floor
//	            permitting
//	otherwise:  one or two random joins/leaves
func shardBoundary(rep *Report, rng *rand.Rand, static, elastic *directory.Directory,
	n, round int, nextID uint64) uint64 {
	switch round {
	case 1:
		g := largestSubgroup(elastic)
		for len(elastic.Subgroup(g)) <= 2*n-1 {
			nextID = shardJoin(rep, rng, static, elastic, g, nextID)
		}
	case 3:
		g := smallestSubgroup(elastic, -1)
		for 2*len(elastic.Subgroup(g)) >= n {
			if !shardLeave(rep, rng, static, elastic, g) {
				break // no member removable under the static two-peer floor
			}
		}
	default:
		for i := 0; i < 1+rng.Intn(2); i++ {
			if rng.Intn(2) == 0 || !shardLeave(rep, rng, static, elastic, smallestSubgroup(elastic, -1)) {
				gs := elastic.Subgroups()
				nextID = shardJoin(rep, rng, static, elastic, gs[rng.Intn(len(gs))], nextID)
			}
		}
	}
	return nextID
}

// shardJoin registers a fresh peer in both mirrors: the elastic mirror
// at subgroup eg, the static mirror at a seed-chosen original subgroup.
func shardJoin(rep *Report, rng *rand.Rand, static, elastic *directory.Directory,
	eg int, nextID uint64) uint64 {
	addr := fmt.Sprintf("shard-%d", nextID)
	sg := rng.Intn(2)
	static.Apply(wire.DirectoryUpdate{
		Op: wire.DirJoin, ID: nextID, Subgroup: sg,
		ShareIndex: static.NextShareIndex(sg), Addr: addr,
	})
	elastic.Apply(wire.DirectoryUpdate{
		Op: wire.DirJoin, ID: nextID, Subgroup: eg,
		ShareIndex: elastic.NextShareIndex(eg), Addr: addr,
	})
	rep.Stats.Joins++
	return nextID + 1
}

// shardLeave removes one member of the elastic mirror's subgroup eg
// from both mirrors. The victim must leave at least two peers behind in
// its static subgroup (the static run never re-shards, so it cannot
// absorb a collapsed subgroup); the elastic side may drop below the
// merge threshold — that is the point.
func shardLeave(rep *Report, rng *rand.Rand, static, elastic *directory.Directory, eg int) bool {
	members := elastic.Subgroup(eg)
	start := rng.Intn(len(members))
	for i := 0; i < len(members); i++ {
		e := members[(start+i)%len(members)]
		se, ok := static.Lookup(e.ID)
		if !ok || len(static.Subgroup(se.Subgroup)) <= 2 {
			continue
		}
		static.Apply(wire.DirectoryUpdate{Op: wire.DirLeave, ID: e.ID})
		elastic.Apply(wire.DirectoryUpdate{Op: wire.DirLeave, ID: e.ID})
		rep.Stats.Departs++
		return true
	}
	return false
}

// rebalanceMirror drives the elastic mirror to its size-bound fixpoint:
// split any subgroup above 2n−1 (movers re-registered densely in a new
// subgroup, exactly the cluster's SplitSubgroup rule), merge any
// subgroup below n/2 into the smallest sibling at its lowest free
// slots (MergeSubgroup's rule).
func rebalanceMirror(rep *Report, led *ledger, now int64, tag string,
	dir *directory.Directory, n int) bool {
	for pass := 0; pass < shardOraclePasses; pass++ {
		if g := oversizedSubgroup(dir, n); g >= 0 {
			entries := dir.Subgroup(g)
			keep := (len(entries) + 1) / 2
			ng := dir.Subgroups()[len(dir.Subgroups())-1] + 1
			for i, e := range entries[keep:] {
				dir.Apply(wire.DirectoryUpdate{
					Op: wire.DirJoin, ID: e.ID, Subgroup: ng, ShareIndex: i, Addr: e.Addr,
				})
			}
			rep.Stats.Splits++
			continue
		}
		if g := undersizedSubgroup(dir, n); g >= 0 {
			target := smallestSubgroup(dir, g)
			for _, e := range dir.Subgroup(g) {
				dir.Apply(wire.DirectoryUpdate{
					Op: wire.DirJoin, ID: e.ID, Subgroup: target,
					ShareIndex: dir.NextShareIndex(target), Addr: e.Addr,
				})
			}
			rep.Stats.Merges++
			continue
		}
		return true
	}
	led.violate(now, "shard-balance",
		fmt.Sprintf("%s: rebalance did not converge in %d passes (sizes %v)",
			tag, shardOraclePasses, shardSizes(dir)))
	return false
}

// checkShardRound asserts the round-start invariants: size bounds on
// the elastic mirror, identical membership across mirrors, share-index
// soundness, and full share coverage for both geometries.
func checkShardRound(led *ledger, now int64, tag string, round int,
	static, elastic *directory.Directory, n int) bool {
	gs := elastic.Subgroups()
	for _, g := range gs {
		size := len(elastic.Subgroup(g))
		if size > 2*n-1 {
			led.violate(now, "shard-balance",
				fmt.Sprintf("%s: round %d subgroup %d holds %d > 2n−1 = %d members", tag, round, g, size, 2*n-1))
			return false
		}
		if 2*size < n && len(gs) > 1 {
			led.violate(now, "shard-balance",
				fmt.Sprintf("%s: round %d subgroup %d holds %d < n/2 members unmerged", tag, round, g, size))
			return false
		}
	}
	if static.Len() != elastic.Len() {
		led.violate(now, "shard-accuracy",
			fmt.Sprintf("%s: round %d mirrors diverged: %d static vs %d elastic members",
				tag, round, static.Len(), elastic.Len()))
		return false
	}
	for _, e := range elastic.Members() {
		if _, ok := static.Lookup(e.ID); !ok {
			led.violate(now, "shard-accuracy",
				fmt.Sprintf("%s: round %d peer %d exists only in the elastic mirror", tag, round, e.ID))
			return false
		}
	}
	for _, d := range []*directory.Directory{static, elastic} {
		for _, g := range d.Subgroups() {
			if !d.ShareIndexesSound(g) {
				led.violate(now, "share-index-soundness",
					fmt.Sprintf("%s: round %d subgroup %d holds duplicate share indices", tag, round, g))
				return false
			}
		}
		sizes := shardSizes(d)
		k := kFor(sizes)
		for g, size := range sizes {
			alive := make([]int, size)
			for i := range alive {
				alive[i] = i
			}
			if covered, err := secretshare.CoversAllShares(alive, size, k[g]); err != nil || !covered {
				led.violate(now, "share-index-soundness",
					fmt.Sprintf("%s: round %d subgroup %d (n=%d k=%d) does not cover all shares (err=%v)",
						tag, round, g, size, k[g], err))
				return false
			}
		}
	}
	return true
}

// shardSizes reads the nonempty subgroup sizes off the mirror in
// ascending subgroup order — the geometry handed to core.Reconfigure.
func shardSizes(dir *directory.Directory) []int {
	gs := dir.Subgroups()
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = len(dir.Subgroup(g))
	}
	return out
}

// oversizedSubgroup returns the lowest subgroup above the split
// threshold 2n−1, or −1.
func oversizedSubgroup(dir *directory.Directory, n int) int {
	for _, g := range dir.Subgroups() {
		if len(dir.Subgroup(g)) > 2*n-1 {
			return g
		}
	}
	return -1
}

// undersizedSubgroup returns the lowest subgroup below the merge
// threshold n/2 that has a sibling to merge into, or −1.
func undersizedSubgroup(dir *directory.Directory, n int) int {
	gs := dir.Subgroups()
	if len(gs) < 2 {
		return -1
	}
	for _, g := range gs {
		if 2*len(dir.Subgroup(g)) < n {
			return g
		}
	}
	return -1
}

// smallestSubgroup returns the nonempty subgroup with the fewest
// members (lowest index ties), skipping subgroup `except`.
func smallestSubgroup(dir *directory.Directory, except int) int {
	best, bestSize := -1, 0
	for _, g := range dir.Subgroups() {
		if g == except {
			continue
		}
		if size := len(dir.Subgroup(g)); best < 0 || size < bestSize {
			best, bestSize = g, size
		}
	}
	return best
}

// largestSubgroup returns the subgroup with the most members (lowest
// index ties; Subgroups is ascending).
func largestSubgroup(dir *directory.Directory) int {
	gs := dir.Subgroups()
	best, bestSize := gs[0], len(dir.Subgroup(gs[0]))
	for _, g := range gs[1:] {
		if size := len(dir.Subgroup(g)); size > bestSize {
			best, bestSize = g, size
		}
	}
	return best
}
