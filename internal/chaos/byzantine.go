package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/sac"
	"repro/internal/transport"
)

// The Byzantine oracle pits seed-derived adversary plans against the
// robust SAC/two-layer stack and checks four invariant families:
//
//   - byzantine-robust: with f = 1 adversaries per subgroup (< n/3, and
//     within the guard's honest-majority precondition n−k+1 ≥ 2f+1 at
//     k = n−2), the guarded aggregation's global model stays within
//     byzOracleBound of the equal-seed clean baseline (the same models
//     aggregated with no adversary — verified against the plaintext
//     mean, which the sac-exactness invariant pins the clean run to).
//   - byzantine-detection: forged (out-of-range) shares get their
//     sender excluded, inflated subtotal copies surface as mismatches,
//     and honest peers are never excluded or accused.
//   - byzantine-equivocation: a leader announcing divergent results is
//     convicted by the audit exactly when it actually equivocated.
//   - byzantine-privacy: the adversary coalition observes strictly
//     fewer than n share indices of every honest peer's model.
//   - byzantine-vacuous (sharpness): the identical campaign re-run
//     under plain-mean (unguarded) aggregation must leave the
//     tolerance — every plan carries at least one strong attacker, so
//     a plain run that still "passes" means the checkers check
//     nothing, which is itself reported as a violation.
//
// Everything derives from Campaign.Seed, so a red seed replays exactly.

const (
	// byzOracleW bounds oracle model coordinates: |w[d]| ∈ [1, byzOracleW].
	// The lower bound 1 makes poison-scale shares provably out of range
	// (1000·1/n > byzOracleW for n ≤ 6) so detection is deterministic.
	byzOracleW = 10.0
	// byzOracleBound is the honest-convergence tolerance for the global
	// model. Worst-case honest deviation (one sign-flipped or excluded
	// model per subgroup plus cross-subgroup median-vs-mean spread) stays
	// under 2.2·W; strong attacks under plain mean shift the global by
	// ≥ 55 (poison-scale) up to ~55 000 (inflate), so the bound cleanly
	// separates robust from unguarded runs.
	byzOracleBound = 3 * byzOracleW
	// byzCorruptTol bounds the residual deviation a corrupt-shares
	// adversary can smuggle past the median (one perturbed share per
	// subtotal, ≤ sac's corruptNoiseAmp per coordinate).
	byzCorruptTol = 1.0
)

// scheduleBehaviors are the behaviors ActByzantine draws from when a
// schedule is generated. Equivocation is excluded: it only manifests in
// a peer that happens to lead, which the oracle exercises directly.
var scheduleBehaviors = []sac.Behavior{
	sac.ByzCorruptShares, sac.ByzInflateSubtotal, sac.ByzZeroSubtotal,
	sac.ByzPoisonScale, sac.ByzPoisonSignFlip,
}

// oracleBehaviors additionally include leader equivocation.
var oracleBehaviors = append(scheduleBehaviors[:len(scheduleBehaviors):len(scheduleBehaviors)], sac.ByzEquivocate)

// strongBehavior reports whether b shifts a plain mean beyond
// byzOracleBound deterministically (the sharpness witnesses).
func strongBehavior(b sac.Behavior) bool {
	switch b {
	case sac.ByzInflateSubtotal, sac.ByzPoisonScale, sac.ByzEquivocate:
		return true
	}
	return false
}

// byzAdversary is one subgroup's marked peer for an oracle round.
type byzAdversary struct {
	peer     int // local index within the subgroup
	behavior sac.Behavior
}

func byzantineRound(c Campaign, rep *Report, led *ledger, rng *rand.Rand, round int) {
	m := 2 + rng.Intn(2)   // subgroups
	n := 4 + rng.Intn(3)   // peers per subgroup
	k := n - 2             // 3-way replication: honest majority vs f = 1
	dim := 2 + rng.Intn(2) // small models keep campaigns fast

	// One adversary per subgroup (f = 1 < n/3), at least one of them
	// strong (the sharpness witness), and never all of them equivocating
	// leaders — an honest-majority system must keep at least one
	// unaccused subgroup.
	advs := make([]byzAdversary, m)
	anyStrong := false
	for g := range advs {
		advs[g] = byzAdversary{peer: rng.Intn(n), behavior: oracleBehaviors[rng.Intn(len(oracleBehaviors))]}
		if strongBehavior(advs[g].behavior) {
			anyStrong = true
		}
	}
	if !anyStrong {
		advs[0].behavior = sac.ByzInflateSubtotal
	}
	allEquivocate := true
	for _, a := range advs {
		if a.behavior != sac.ByzEquivocate {
			allEquivocate = false
		}
	}
	if allEquivocate {
		advs[m-1].behavior = sac.ByzInflateSubtotal
	}
	rep.Stats.Byzantines += m

	// Leaders: an honest neighbour of the adversary — except the
	// equivocation case, which puts the adversary itself in charge.
	leaders := make([]int, m)
	plans := make(map[int]sac.AdversaryPlan, m)
	for g, a := range advs {
		plans[g] = sac.AdversaryPlan{a.peer: a.behavior}
		if a.behavior == sac.ByzEquivocate {
			leaders[g] = a.peer
		} else {
			leaders[g] = (a.peer + 1) % n
		}
	}

	// Models with |w[d]| ∈ [1, byzOracleW]: the nonzero floor keeps
	// poison-scale detection deterministic (see byzOracleW).
	models := make([][]float64, m*n)
	for i := range models {
		models[i] = make([]float64, dim)
		for d := range models[i] {
			sign := 1.0
			if rng.Intn(2) == 1 {
				sign = -1
			}
			models[i][d] = sign * math.Round((1+9*rng.Float64())*1024) / 1024
		}
	}
	guard := &sac.Guard{ShareBound: byzOracleW}

	// Part A — SAC-level probes: one guarded aggregation per subgroup
	// plan, with a mesh observer feeding the coalition-privacy checker.
	for g := 0; g < m; g++ {
		byzantineSACProbe(led, rng, round, g, n, k, leaders[g], advs[g],
			models[g*n:(g+1)*n], guard, c, rep)
	}

	// Part B — two-layer: clean baseline, robust run, plain-mean shadow.
	tag := fmt.Sprintf("byz round %d (m=%d n=%d k=%d)", round, m, n, k)
	now := int64(round)
	sizes := make([]int, m)
	for g := range sizes {
		sizes[g] = n
	}
	sysSeed := rng.Int63()

	// Clean baseline at equal seed: same models, no adversary, no guard.
	// The sac-exactness invariant pins it to the plaintext global mean.
	clean := plainMean(models, nil)
	// The three runs differ in guard and combiner only.
	build := func(invariant, what string, cfg core.Config) *core.System {
		cfg.Sizes, cfg.K, cfg.Telemetry = sizes, []int{k}, c.Telemetry
		sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(sysSeed)))
		if err != nil {
			led.violate(now, invariant, fmt.Sprintf("%s: %s config invalid: %v", tag, what, err))
		}
		return sys
	}
	cleanSys := build("byzantine-robust", "clean", core.Config{})
	robustSys := build("byzantine-robust", "robust", core.Config{Guard: guard, Aggregator: fl.CoordinateMedian{}})
	plainSys := build("byzantine-vacuous", "plain", core.Config{})
	if cleanSys == nil || robustSys == nil || plainSys == nil {
		return
	}
	cleanRes, err := cleanSys.AggregateRound(models, core.RoundSpec{Leaders: leaders})
	rep.Stats.SACRounds++
	if err != nil {
		led.violate(now, "byzantine-robust", tag+": clean baseline failed: "+err.Error())
		return
	}
	if d := linf(cleanRes.Global, clean); d > 1e-9 {
		led.violate(now, "byzantine-robust",
			fmt.Sprintf("%s: clean baseline off plaintext mean by %g", tag, d))
	}

	spec := core.RoundSpec{Leaders: leaders, Adversary: plans}
	robustRes, err := robustSys.AggregateRound(models, spec)
	rep.Stats.SACRounds++
	if err != nil {
		led.violate(now, "byzantine-robust", tag+": robust round failed: "+err.Error())
		return
	}

	// Honest-majority convergence: the robust global stays within
	// tolerance of the clean baseline despite every subgroup hosting an
	// adversary.
	if d := linf(robustRes.Global, clean); d > byzOracleBound {
		led.violate(now, "byzantine-robust",
			fmt.Sprintf("%s: robust global deviates %.2f > %.2f from clean baseline", tag, d, byzOracleBound))
	}

	// Per-behavior structural checks on the robust round.
	accusedSubs := make(map[int]bool, len(robustRes.ByzantineExcluded))
	for _, g := range robustRes.ByzantineExcluded {
		accusedSubs[g] = true
	}
	rep.Stats.ByzantineDetections += len(robustRes.ByzantineExcluded)
	for g, a := range advs {
		switch a.behavior {
		case sac.ByzEquivocate:
			if !accusedSubs[g] {
				led.violate(now, "byzantine-equivocation",
					fmt.Sprintf("%s: equivocating leader of subgroup %d escaped the audit", tag, g))
			}
		case sac.ByzPoisonScale:
			if !slices.Contains(robustRes.ExcludedPeers[g], a.peer) {
				led.violate(now, "byzantine-detection",
					fmt.Sprintf("%s: poison-scale peer %d of subgroup %d escaped the range guard", tag, a.peer, g))
			}
			rep.Stats.ByzantineDetections += len(robustRes.ExcludedPeers[g])
		default:
			if accusedSubs[g] {
				led.violate(now, "byzantine-equivocation",
					fmt.Sprintf("%s: honest leader of subgroup %d falsely accused", tag, g))
			}
		}
	}

	// Sharpness: the identical campaign under plain-mean aggregation
	// must leave the tolerance — otherwise the invariants above are
	// vacuously green and that is itself a finding.
	plainRes, err := plainSys.AggregateRound(models, spec)
	rep.Stats.SACRounds++
	if err == nil {
		if d := linf(plainRes.Global, clean); d <= byzOracleBound {
			led.violate(now, "byzantine-vacuous",
				fmt.Sprintf("%s: plain-mean aggregation stayed within tolerance (dev %.2f ≤ %.2f) — checkers prove nothing",
					tag, d, byzOracleBound))
		}
	}
	// A plain run that errors outright is also damage, hence also sharp.
}

// byzantineSACProbe runs one guarded subgroup SAC under a single
// adversary and checks detection, bounded deviation and coalition
// privacy at the share level.
func byzantineSACProbe(led *ledger, rng *rand.Rand, round, g, n, k, leader int,
	adv byzAdversary, models [][]float64, guard *sac.Guard, c Campaign, rep *Report) {
	now := int64(round)
	tag := fmt.Sprintf("byz round %d sub %d (n=%d k=%d leader=%d %s)", round, g, n, k, leader, adv.behavior)

	// Coalition privacy probe: which of each victim's share indices the
	// adversary observed.
	mesh := transport.NewMesh(n, nil)
	seen := watchShares(mesh, n)[adv.peer]

	cfg := sac.Config{
		N: n, K: k, Leader: leader, Mode: sac.ModeLeader,
		Rng: rand.New(rand.NewSource(rng.Int63())), Telemetry: c.Telemetry,
		Adversary: sac.AdversaryPlan{adv.peer: adv.behavior}, Guard: guard,
	}
	res, err := sac.Run(mesh, cfg, models, nil)
	rep.Stats.SACRounds++
	if err != nil {
		led.violate(now, "byzantine-robust", tag+": guarded aggregation failed: "+err.Error())
		return
	}

	for victim, idxs := range seen {
		if victim != adv.peer && len(idxs) >= n {
			led.violate(now, "byzantine-privacy",
				fmt.Sprintf("%s: coalition observed all %d share indices of honest peer %d", tag, n, victim))
		}
	}

	// Detection per behavior, and no false flags on the honest side.
	detections := res.Mismatches + len(res.Excluded)
	if res.LeaderAccused {
		detections++
	}
	rep.Stats.ByzantineDetections += detections
	switch adv.behavior {
	case sac.ByzInflateSubtotal:
		if res.Mismatches == 0 {
			led.violate(now, "byzantine-detection", tag+": inflated subtotal copies raised no mismatch")
		}
	case sac.ByzCorruptShares:
		if res.Mismatches == 0 && len(res.Excluded) == 0 {
			led.violate(now, "byzantine-detection", tag+": corrupted shares raised neither mismatch nor exclusion")
		}
	case sac.ByzPoisonScale:
		if !slices.Contains(res.Excluded, adv.peer) {
			led.violate(now, "byzantine-detection", tag+": poison-scale shares escaped the range guard")
		}
	case sac.ByzEquivocate:
		if !res.LeaderAccused {
			led.violate(now, "byzantine-equivocation", tag+": equivocating leader escaped the audit")
		}
	case sac.ByzZeroSubtotal, sac.ByzPoisonSignFlip:
		if len(res.Excluded) != 0 {
			led.violate(now, "byzantine-detection",
				fmt.Sprintf("%s: in-range behavior falsely excluded peers %v", tag, res.Excluded))
		}
	}
	if adv.behavior != sac.ByzEquivocate && res.LeaderAccused {
		led.violate(now, "byzantine-equivocation", tag+": honest leader falsely accused")
	}
	for _, p := range res.Excluded {
		if p != adv.peer {
			led.violate(now, "byzantine-detection",
				fmt.Sprintf("%s: honest peer %d falsely excluded", tag, p))
		}
	}

	// Bounded deviation: the guarded average must equal the mean of the
	// contributors' effective models — exactly for consistent behaviors
	// (the median outvotes a single liar bit-for-bit), and within
	// byzCorruptTol for corrupt-shares (one perturbed share per sum).
	effective := append([][]float64(nil), models...)
	switch adv.behavior {
	case sac.ByzPoisonSignFlip:
		effective[adv.peer] = attackedCopy(models[adv.peer], -1)
	case sac.ByzPoisonScale:
		effective[adv.peer] = attackedCopy(models[adv.peer], sac.PoisonScaleFactor)
	}
	want := plainMean(effective, res.Contributors)
	tol := 1e-9
	if adv.behavior == sac.ByzCorruptShares {
		tol = byzCorruptTol
	}
	if d := linf(res.Avg, want); d > tol {
		led.violate(now, "byzantine-robust",
			fmt.Sprintf("%s: guarded avg deviates %g > %g from effective contributor mean", tag, d, tol))
	}
}

func attackedCopy(w []float64, factor float64) []float64 {
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = factor * v
	}
	return out
}

func linf(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
