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

// The churn oracle (Campaign.ChurnRounds) drives mid-training membership
// changes through the round-boundary reconfiguration path — exactly the
// contract the control plane promises: the directory reassigns share
// indices between rounds, never mid-round — and checks the churn
// invariants the issue names:
//
//   - share-index-soundness: after every membership change the
//     directory mirror assigns no duplicate share index within a
//     subgroup, and the membership each round aggregates with covers
//     all shares of its k-of-n geometry (secretshare.CoversAllShares).
//   - churn-accuracy: the training curve under churn stays within
//     churnAccuracyTol of the equal-seed fixed-membership baseline at
//     every round — joining and leaving peers shift the global mean by
//     at most the peer-deviation bound, they never corrupt it.
//   - sac-exactness: every round's aggregate — churned or not — equals
//     the plaintext mean of that round's membership to floating-point
//     tolerance.
//
// Everything derives from Campaign.Seed, so a red seed replays exactly.

const (
	// churnOracleSpread bounds each oracle peer's deviation from the
	// shared per-round target model. Any membership's mean then stays
	// within churnOracleSpread of the target, so two memberships' means
	// differ by at most 2·churnOracleSpread.
	churnOracleSpread = 0.5
	// churnAccuracyTol is the curve tolerance implied by the spread.
	churnAccuracyTol = 2*churnOracleSpread + 1e-9
	// churnOracleRounds is the training-curve length per episode.
	churnOracleRounds = 4
)

// runChurnOracle executes Campaign.ChurnRounds churn episodes.
func runChurnOracle(c Campaign, rep *Report) {
	led := newLedger(rep)
	rng := rand.New(rand.NewSource(c.Seed*5417 + 7))
	for ep := 0; ep < c.ChurnRounds; ep++ {
		churnEpisode(c, rep, led, rng, ep)
	}
}

// churnTrace is one episode's membership schedule: event r fires at the
// boundary before round r+1.
type churnTrace struct {
	join bool
	g    int
}

func churnEpisode(c Campaign, rep *Report, led *ledger, rng *rand.Rand, ep int) {
	m := 2 + rng.Intn(2)   // subgroups
	n0 := 3 + rng.Intn(2)  // initial peers per subgroup
	dim := 2 + rng.Intn(3) // small models keep campaigns fast
	now := int64(ep)
	tag := fmt.Sprintf("churn episode %d (m=%d n0=%d)", ep, m, n0)

	// Directory mirror seeded with the initial membership — the same
	// state machine the cluster replicates, driven here without the log.
	dir := directory.New()
	nextID := uint64(1)
	for g := 0; g < m; g++ {
		for i := 0; i < n0; i++ {
			if _, err := dir.Apply(wire.DirectoryUpdate{
				Op: wire.DirJoin, ID: nextID, Subgroup: g, ShareIndex: i,
				Addr: fmt.Sprintf("oracle-%d", nextID),
			}); err != nil {
				led.violate(now, "share-index-soundness", tag+": seeding rejected: "+err.Error())
				return
			}
			nextID++
		}
	}

	trace := make([]churnTrace, churnOracleRounds-1)
	for r := range trace {
		trace[r] = churnTrace{join: rng.Intn(2) == 0, g: rng.Intn(m)}
	}
	jitterSeed := rng.Int63()
	sysSeed := rng.Int63()

	fixedSizes := make([]int, m)
	for g := range fixedSizes {
		fixedSizes[g] = n0
	}

	// Fixed-membership baseline at equal seed: same per-round targets,
	// same jitter bound, no churn.
	baseline, ok := churnCurve(c, rep, led, now, tag+" baseline", fixedSizes, nil, nil, 0, dim, jitterSeed, sysSeed)
	if !ok {
		return
	}

	// Churned run: the trace mutates the directory between rounds and
	// core.Reconfigure re-shapes the aggregation to match.
	curve, ok := churnCurve(c, rep, led, now, tag, fixedSizes, dir, trace, nextID, dim, jitterSeed, sysSeed)
	if !ok {
		return
	}
	for r := range curve {
		for d := range curve[r] {
			if diff := math.Abs(curve[r][d] - baseline[r][d]); diff > churnAccuracyTol {
				led.violate(now, "churn-accuracy",
					fmt.Sprintf("%s: round %d global[%d] deviates %.4f > %.4f from the fixed-membership baseline",
						tag, r, d, diff, churnAccuracyTol))
				return
			}
		}
	}
	rep.Stats.SACRounds += 2 * churnOracleRounds
}

// churnCurve runs one training curve of churnOracleRounds aggregation
// rounds and returns the per-round globals. A nil dir runs the
// fixed-membership baseline; otherwise trace events mutate the directory
// at round boundaries and the system is reconfigured from its state.
func churnCurve(c Campaign, rep *Report, led *ledger, now int64, tag string, sizes []int,
	dir *directory.Directory, trace []churnTrace, nextID uint64, dim int,
	jitterSeed, sysSeed int64) ([][]float64, bool) {
	m := len(sizes)
	cur := append([]int(nil), sizes...)
	sys, err := core.NewSystem(core.Config{Sizes: cur, K: kFor(cur), Telemetry: c.Telemetry},
		rand.New(rand.NewSource(sysSeed)))
	if err != nil {
		led.violate(now, "churn-accuracy", tag+": config invalid: "+err.Error())
		return nil, false
	}
	jitter := rand.New(rand.NewSource(jitterSeed))
	curve := make([][]float64, 0, churnOracleRounds)
	for round := 0; round < churnOracleRounds; round++ {
		if dir != nil && round > 0 {
			nextID = applyChurnEvent(c, rep, led, now, tag, dir, trace[round-1], nextID)
			cur = directorySizes(dir, m)
			if err := sys.Reconfigure(cur, kFor(cur)); err != nil {
				led.violate(now, "share-index-soundness",
					fmt.Sprintf("%s: round %d reconfigure rejected directory geometry %v: %v", tag, round, cur, err))
				return nil, false
			}
		}
		// Round-start soundness: no duplicate indices, and the live
		// membership covers all shares of this round's k-of-n geometry.
		if dir != nil {
			for g := 0; g < m; g++ {
				if !dir.ShareIndexesSound(g) {
					led.violate(now, "share-index-soundness",
						fmt.Sprintf("%s: round %d subgroup %d holds duplicate or negative share indices", tag, round, g))
					return nil, false
				}
			}
		}
		k := kFor(cur)
		for g := 0; g < m; g++ {
			alive := make([]int, cur[g])
			for i := range alive {
				alive[i] = i
			}
			if covered, err := secretshare.CoversAllShares(alive, cur[g], k[g]); err != nil || !covered {
				led.violate(now, "share-index-soundness",
					fmt.Sprintf("%s: round %d subgroup %d (n=%d k=%d) does not cover all shares (err=%v)",
						tag, round, g, cur[g], k[g], err))
				return nil, false
			}
		}

		models := churnModels(jitter, cur, round, dim)
		res, err := sys.AggregateRound(models, core.RoundSpec{})
		if err != nil {
			led.violate(now, "churn-accuracy",
				fmt.Sprintf("%s: round %d aggregation failed: %v", tag, round, err))
			return nil, false
		}
		want := plainMean(models)
		for d := range want {
			if math.Abs(res.Global[d]-want[d]) > 1e-9 {
				led.violate(now, "sac-exactness",
					fmt.Sprintf("%s: round %d global[%d] = %g, plaintext mean %g", tag, round, d, res.Global[d], want[d]))
				return nil, false
			}
		}
		curve = append(curve, res.Global)
	}
	return curve, true
}

// applyChurnEvent mutates the directory mirror with one trace event: a
// join takes the lowest free share index (the control plane's
// assignment rule), a leave removes the subgroup's lowest-index member.
// Leaves that would breach the two-member floor become joins, keeping
// the trace meaningful at every geometry.
func applyChurnEvent(c Campaign, rep *Report, led *ledger, now int64, tag string,
	dir *directory.Directory, ev churnTrace, nextID uint64) uint64 {
	members := dir.Subgroup(ev.g)
	if !ev.join && len(members) > 2 {
		if _, err := dir.Apply(wire.DirectoryUpdate{Op: wire.DirLeave, ID: members[0].ID}); err != nil {
			led.violate(now, "share-index-soundness", tag+": leave rejected: "+err.Error())
			return nextID
		}
		rep.Stats.Departs++
		if c.Telemetry != nil {
			c.Telemetry.Counter("chaos/churn/oracle_departs").Inc()
		}
		return nextID
	}
	if _, err := dir.Apply(wire.DirectoryUpdate{
		Op: wire.DirJoin, ID: nextID, Subgroup: ev.g,
		ShareIndex: dir.NextShareIndex(ev.g),
		Addr:       fmt.Sprintf("oracle-%d", nextID),
	}); err != nil {
		led.violate(now, "share-index-soundness", tag+": join rejected: "+err.Error())
		return nextID
	}
	rep.Stats.Joins++
	if c.Telemetry != nil {
		c.Telemetry.Counter("chaos/churn/oracle_joins").Inc()
	}
	return nextID + 1
}

// directorySizes reads the per-subgroup membership counts off the mirror.
func directorySizes(dir *directory.Directory, m int) []int {
	out := make([]int, m)
	for g := range out {
		out[g] = len(dir.Subgroup(g))
	}
	return out
}

// kFor derives each subgroup's sharing threshold from its size: k = n−1
// (the replication the cluster rounds use), floored at 1.
func kFor(sizes []int) []int {
	out := make([]int, len(sizes))
	for g, n := range sizes {
		out[g] = n - 1
		if out[g] < 1 {
			out[g] = 1
		}
	}
	return out
}

// churnModels draws one round's models: every peer sits within
// churnOracleSpread of the shared round target, so the membership's mean
// is target-bound regardless of who joined or left.
func churnModels(jitter *rand.Rand, sizes []int, round, dim int) [][]float64 {
	total := 0
	for _, n := range sizes {
		total += n
	}
	models := make([][]float64, total)
	for i := range models {
		models[i] = make([]float64, dim)
		for d := range models[i] {
			target := float64(round+1) + float64(d)/8
			models[i][d] = target + churnOracleSpread*math.Round((2*jitter.Float64()-1)*1024)/1024
		}
	}
	return models
}

func plainMean(models [][]float64) []float64 {
	out := make([]float64, len(models[0]))
	for _, w := range models {
		for d, v := range w {
			out[d] += v
		}
	}
	for d := range out {
		out[d] /= float64(len(models))
	}
	return out
}
