package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
)

// The churn oracle (ChurnOracle) drives mid-training membership
// changes through the real control plane: every episode bootstraps a
// cluster.System on a calm network under the campaign's profile,
// topology and timers, applies its join/leave trace with AddPeer and
// DepartPeer at round boundaries — the contract the control plane
// promises: the directory reassigns share indices between rounds, never
// mid-round — reads each round's geometry off the system and aggregates
// under it. The invariants:
//
//   - share-index-soundness: after every membership change the FedAvg
//     leader's directory assigns no duplicate share index within a
//     subgroup and records exactly the admitted membership, and the
//     membership each round aggregates with covers all shares of its
//     k-of-n geometry (secretshare.CoversAllShares).
//   - directory-convergence: at every boundary the live directory
//     replicas reach equal state.
//   - churn-liveness: every admission, departure and boundary settles
//     inside oracleStepLimit and leaves no subgroup without a quorum.
//   - model-handoff: a departing peer's model reaches a staying
//     co-member bit for bit before its removal commits.
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
	// oracleStepLimit bounds, in virtual time, every control-plane step of
	// an oracle episode: one admission, one departure, one committed step
	// of a split or merge, one boundary settle.
	oracleStepLimit = 30 * simnet.Second
)

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
	trace := make([]churnTrace, churnOracleRounds-1)
	for r := range trace {
		trace[r] = churnTrace{join: rng.Intn(2) == 0, g: rng.Intn(m)}
	}
	jitterSeed := rng.Int63()
	sysSeed := rng.Int63()
	// The control plane's seed and the departure picks have their own
	// stream: the schedule above is a function of the campaign seed alone.
	ctl := rand.New(rand.NewSource(sysSeed ^ 0x6a09e667))

	e, ok := newEpisode(c, rep, led, "churn", fmt.Sprintf("churn episode %d (m=%d n0=%d)", ep, m, n0), m, n0, ctl.Int63())
	if !ok {
		return
	}
	// Fixed-membership baseline at equal seed: same per-round targets,
	// same jitter bound, no churn.
	fixed := e.sys.RoundGeometry().Sizes
	baseAgg, ok1 := e.newAggregation(fixed, sysSeed)
	liveAgg, ok2 := e.newAggregation(fixed, sysSeed)
	if !ok1 || !ok2 {
		return
	}
	baseJitter, liveJitter := rand.New(rand.NewSource(jitterSeed)), rand.New(rand.NewSource(jitterSeed))

	for round := 0; round < churnOracleRounds; round++ {
		if round > 0 { // the trace event commits between rounds
			if ev := trace[round-1]; !e.churnOne(ev.g, !ev.join, ctl.Intn(1<<16)) {
				return
			}
		}
		geo, ok := e.settle()
		if !ok {
			return
		}
		base, ok := e.aggregate(baseAgg, "baseline", round, fixed, core.RoundSpec{},
			churnModels(baseJitter, fixed, round, dim))
		if !ok {
			return
		}
		models := churnModels(liveJitter, geo.Sizes, round, dim)
		e.install(geo, models)
		live, ok := e.aggregate(liveAgg, "churned", round, geo.Sizes, roundSpec(geo), models)
		if !ok {
			return
		}
		if d := firstBeyond(live, base, churnAccuracyTol); d >= 0 {
			e.fail("churn-accuracy", "round %d global[%d] deviates %.4f > %.4f from the fixed-membership baseline",
				round, d, math.Abs(live[d]-base[d]), churnAccuracyTol)
			return
		}
	}
	rep.Stats.SACRounds += 2 * churnOracleRounds
}

// episode is one churn or shard oracle episode's system under test: a
// real two-layer cluster on a calm network, driven at round boundaries.
type episode struct {
	c     Campaign
	rep   *Report
	led   *ledger
	sys   *cluster.System
	track string // "churn" or "shard": prefixes the liveness and accuracy invariants
	tag   string
}

// newEpisode bootstraps an m×n cluster by the campaign's recipe.
func newEpisode(c Campaign, rep *Report, led *ledger, track, tag string, m, n int, seed int64) (*episode, bool) {
	c.Subgroups, c.SubgroupSize, c.Seed = m, n, seed
	e := &episode{c: c, rep: rep, led: led, sys: newCluster(c), track: track, tag: tag}
	if err := e.sys.Bootstrap(60 * simnet.Second); err != nil {
		return nil, e.fail(track+"-liveness", "bootstrap on a healthy network failed: %v", err)
	}
	return e, true
}

// fail records a violation at the episode's virtual time; it returns
// false, the verdict of the step that failed.
func (e *episode) fail(invariant, format string, args ...any) bool {
	e.led.violate(int64(e.sys.Sim.Now()), invariant, e.tag+": "+fmt.Sprintf(format, args...))
	return false
}

// churnOne applies one membership event to subgroup g: the graceful
// departure of its pick-th member when leave is set, an admission
// otherwise — and also when the control plane refuses the departure (its
// two-member floor), so every event changes the membership.
func (e *episode) churnOne(g int, leave bool, pick int) bool {
	if leave {
		if departed, ok := e.depart(g, pick); departed || !ok {
			return ok
		}
	}
	return e.join(g)
}

// join admits a fresh peer into subgroup g and waits for the admission
// to commit.
func (e *episode) join(g int) bool {
	id, err := e.sys.AddPeer(g)
	if err == nil {
		_, err = e.sys.WaitAdmitted(id, oracleStepLimit)
	}
	if err != nil {
		return e.fail(e.track+"-liveness", "join into subgroup %d: %v", g, err)
	}
	e.rep.Stats.Joins++
	return true
}

// depart gracefully departs the pick-th member of subgroup g, checks
// that its model was handed to a staying co-member, and waits for the
// departure to commit. departed is false (and ok true) when the control
// plane refused the departure.
func (e *episode) depart(g, pick int) (departed, ok bool) {
	peers := e.sys.SubgroupPeers(g)
	id := peers[pick%len(peers)]
	model := e.sys.Peer(id).Model()
	if err := e.sys.DepartPeer(id); err != nil {
		return false, true
	}
	// A peer admitted since the last round has no model to hand off yet.
	if len(model) > 0 {
		inherited := false
		for _, co := range peers {
			inherited = inherited || (co != id && sameBits(e.sys.Peer(co).Inherited(), model))
		}
		if !inherited {
			return false, e.fail("model-handoff", "no member of subgroup %d inherited departing peer %d's model bit for bit", g, id)
		}
	}
	if _, err := e.sys.WaitDeparted(id, oracleStepLimit); err != nil {
		return false, e.fail(e.track+"-liveness", "%v", err)
	}
	e.rep.Stats.Departs++
	return true, true
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// settle closes a round boundary: the cluster runs until no churn is in
// flight, both layers have their leaders and the live directory replicas
// agree; the agreed directory must record exactly the admitted
// membership with sound share indices, and no subgroup may lack a
// quorum. It returns the geometry the next round runs under.
func (e *episode) settle() (cluster.RoundGeometry, bool) {
	sys := e.sys
	var geo cluster.RoundGeometry
	elected := func() bool {
		geo = sys.RoundGeometry()
		return sys.ChurnIdle() && geo.FedLeader >= 0 && !slices.Contains(geo.Leaders, -1)
	}
	settled := func() bool { return elected() && sys.DirectoryConverged() }
	if !sys.Sim.RunWhileNot(settled, sys.Sim.Now()+simnet.Time(oracleStepLimit)) {
		if elected() {
			return geo, e.fail("directory-convergence", "live directory replicas still disagree %.0f ms after the boundary", oracleStepLimit.Ms())
		}
		return geo, e.fail(e.track+"-liveness", "churn in flight or a layer leaderless %.0f ms after the boundary (leaders %v, fed %d)",
			oracleStepLimit.Ms(), geo.Leaders, geo.FedLeader)
	}
	for _, g := range geo.Subgroups {
		if !sys.Directory().ShareIndexesSound(g) {
			return geo, e.fail("share-index-soundness", "subgroup %d holds duplicate or negative share indices", g)
		}
	}
	if !sys.DirectoryMatchesMembership() {
		return geo, e.fail("share-index-soundness", "FedAvg leader's directory does not match the admitted membership %v", geo.Sizes)
	}
	if degraded := sys.DegradedSubgroups(); len(degraded) > 0 {
		return geo, e.fail(e.track+"-liveness", "subgroups %v of %v lack a live quorum on a calm network", degraded, geo.Subgroups)
	}
	return geo, true
}

// roundSpec is the round parameters a geometry dictates: the elected
// leaders and the FedAvg-leading subgroup.
func roundSpec(geo cluster.RoundGeometry) core.RoundSpec {
	return core.RoundSpec{Leaders: geo.Leaders, FedLeader: geo.FedLeader}
}

// install hands every admitted peer its round model, in the geometry's
// peer order — the state a graceful departure must hand off.
func (e *episode) install(geo cluster.RoundGeometry, models [][]float64) {
	i := 0
	for _, g := range geo.Subgroups {
		for _, id := range e.sys.SubgroupPeers(g) {
			e.sys.Peer(id).SetModel(models[i])
			i++
		}
	}
}

// newAggregation builds the data plane of one training curve.
func (e *episode) newAggregation(sizes []int, seed int64) (*core.System, bool) {
	agg, err := core.NewSystem(core.Config{Sizes: sizes, K: kFor(sizes), Telemetry: e.c.Telemetry},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, e.fail(e.track+"-accuracy", "config invalid: %v", err)
	}
	return agg, true
}

// aggregate runs one round of a curve: agg is reshaped to sizes
// (core.Reconfigure, the round-boundary seam), the membership must cover
// all shares of its k-of-n geometry, and the round's global must equal
// the plaintext mean of models.
func (e *episode) aggregate(agg *core.System, what string, round int, sizes []int, spec core.RoundSpec,
	models [][]float64) ([]float64, bool) {
	k := kFor(sizes)
	if err := agg.Reconfigure(sizes, k); err != nil {
		return nil, e.fail("share-index-soundness", "round %d %s reconfigure rejected geometry %v: %v", round, what, sizes, err)
	}
	if g, err := uncoveredSubgroup(sizes, k); g >= 0 {
		return nil, e.fail("share-index-soundness", "round %d %s subgroup %d (n=%d k=%d) does not cover all shares (err=%v)",
			round, what, g, sizes[g], k[g], err)
	}
	res, err := agg.AggregateRound(models, spec)
	if err != nil {
		return nil, e.fail(e.track+"-accuracy", "round %d %s aggregation failed: %v", round, what, err)
	}
	want := plainMean(models, nil)
	if d := firstBeyond(res.Global, want, 1e-9); d >= 0 {
		return nil, e.fail("sac-exactness", "round %d %s global[%d] = %g, plaintext mean %g", round, what, d, res.Global[d], want[d])
	}
	return res.Global, true
}

// kFor derives each subgroup's sharing threshold from its size: k = n−1
// (the replication the cluster rounds use), floored at 1.
func kFor(sizes []int) []int {
	out := make([]int, len(sizes))
	for g, n := range sizes {
		out[g] = max(n-1, 1)
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
