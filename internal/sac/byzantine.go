// Byzantine adversary model and robust-aggregation guard for the SAC
// engine.
//
// The paper's protocol tolerates crash faults only; this file opens the
// Byzantine scenario space the chaos harness explores (ROADMAP item 3).
// An AdversaryPlan marks peers with a Behavior, each modelling one
// classic attack on a secret-sharing aggregation:
//
//	corrupt-shares     different (perturbed) share copies per receiver
//	inflate-subtotal   reported subtotals offset by a huge constant
//	zero-subtotal      reported subtotals zeroed
//	equivocate         the leader announces divergent results to
//	                   different peers (only manifests when the marked
//	                   peer leads; otherwise the peer acts honestly)
//	poison-scale       the peer's model update scaled by ×1000 before
//	                   sharing
//	poison-sign-flip   the peer's model update negated before sharing
//
// The Guard is the defence: a share-range filter (honest ScalarDivider
// shares are collinear fractions f·w with f ∈ (0,1], so ‖share‖∞ never
// exceeds ‖w‖∞ ≤ ShareBound; anything larger is provably forged and its
// sender is accused and excluded), a cross-checked subtotal combination
// (every alive holder of a share index submits its copy and a robust
// combiner — coordinate-wise median by default — outvotes a minority of
// liars), and a leader-result audit (the leader broadcasts its claimed
// per-index subtotals plus the result; peers check self-consistency and
// echo digests to catch equivocation). Soundness needs an honest
// majority among the alive holders of every share index: with
// replication N−K+1 this means N−K+1 ≥ 2f+1 byzantine holders per
// index, e.g. K = N−2 tolerates f = 1 per subgroup.
//
// Detections surface on the sac/byzantine_* telemetry counters and in
// Result.Excluded / Result.Mismatches / Result.LeaderAccused.
package sac

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/fl"
	"repro/internal/secretshare"
	"repro/internal/transport"
)

// Behavior names one adversarial strategy. The string form is stable so
// plans serialize into chaos replay files.
type Behavior string

// Adversarial behaviors.
const (
	// ByzNone is the zero value: the peer follows the protocol.
	ByzNone Behavior = ""
	// ByzCorruptShares sends each receiver a differently perturbed copy
	// of every share (the peer keeps its true share locally).
	ByzCorruptShares Behavior = "corrupt-shares"
	// ByzInflateSubtotal adds InflateOffset to every subtotal the peer
	// reports (its own index and the replicas it backs).
	ByzInflateSubtotal Behavior = "inflate-subtotal"
	// ByzZeroSubtotal reports all-zero subtotals.
	ByzZeroSubtotal Behavior = "zero-subtotal"
	// ByzEquivocate makes the peer, when it is the leader, announce
	// divergent results to different peers. A non-leader with this mark
	// acts honestly.
	ByzEquivocate Behavior = "equivocate"
	// ByzPoisonScale scales the peer's model by PoisonScaleFactor before
	// dividing it into shares.
	ByzPoisonScale Behavior = "poison-scale"
	// ByzPoisonSignFlip negates the peer's model before sharing.
	ByzPoisonSignFlip Behavior = "poison-sign-flip"
)

// valid reports whether b is a known behavior.
func (b Behavior) valid() bool {
	switch b {
	case ByzNone, ByzCorruptShares, ByzInflateSubtotal, ByzZeroSubtotal,
		ByzEquivocate, ByzPoisonScale, ByzPoisonSignFlip:
		return true
	}
	return false
}

// AdversaryPlan maps peer index → behavior for one aggregation.
type AdversaryPlan map[int]Behavior

// Attack magnitudes. They are constants (not knobs) so detections and
// deviation bounds asserted by the chaos oracle are reproducible.
const (
	// PoisonScaleFactor multiplies a poisoned model.
	PoisonScaleFactor = 1000.0
	// InflateOffset is added to every coordinate of an inflated
	// subtotal — a pure offset, so the induced shift on a plain mean is
	// exactly InflateOffset/|contributors| per coordinate, never
	// accidentally cancelled.
	InflateOffset = 1e6
	// EquivocateOffset separates the two results an equivocating leader
	// announces.
	EquivocateOffset = 1e4
	// CorruptNoiseAmp bounds the per-coordinate perturbation of
	// corrupted share copies.
	CorruptNoiseAmp = 0.5
)

// Guard arms the engine's robust-aggregation defences. The zero value
// of each field disables that defence; Config.Guard == nil disables all
// of them (the crash-only protocol of the paper).
type Guard struct {
	// ShareBound, when positive, is the honest-share magnitude bound:
	// honest peers accuse (and the engine globally excludes) any
	// contributor whose share exceeds it in ‖·‖∞. With the paper's
	// ScalarDivider every share of w is f·w with f ∈ (0,1], so any
	// bound ≥ max‖w‖∞ over honest models never falsely accuses.
	ShareBound float64
	// CrossCheck collects every alive holder's copy of each subtotal at
	// the leader and combines them by coordinate-wise median instead of
	// trusting the owner — the majority-outvote defence. Requires
	// ModeLeader.
	CrossCheck bool
}

// guardTolerance is the consistency tolerance for subtotal mismatch
// counting and the leader-result audit.
const guardTolerance = 1e-6

// byz returns peer i's behavior under the round's adversary plan.
func (e *engine) byz(i int) Behavior {
	if e.cfg.Adversary == nil {
		return ByzNone
	}
	return e.cfg.Adversary[i]
}

// honest reports whether peer i follows the receiver-side protocol
// (adversarial peers never help with accusations or audits).
func (e *engine) honest(i int) bool { return e.byz(i) == ByzNone }

// attackModel applies a model-poisoning behavior, returning a fresh
// copy so the caller's models stay untouched.
func attackModel(b Behavior, w []float64) []float64 {
	factor := 0.0
	switch b {
	case ByzPoisonScale:
		factor = PoisonScaleFactor
	case ByzPoisonSignFlip:
		factor = -1
	default:
		return w
	}
	out := make([]float64, len(w))
	for x, v := range w {
		out[x] = factor * v
	}
	return out
}

// corruptedCopy returns share perturbed by bounded per-coordinate noise
// drawn from the engine rng — a fresh copy per receiver, so different
// holders of the same share index receive inconsistent values.
func (e *engine) corruptedCopy(share []float64) []float64 {
	out := make([]float64, len(share))
	for x, v := range share {
		out[x] = v + (e.rng.Float64()*2-1)*CorruptNoiseAmp
	}
	return out
}

// shareOutOfRange applies the range guard at receiver j: only honest
// receivers screen, and only when a positive bound is armed.
func (e *engine) shareOutOfRange(j int, m transport.Message) bool {
	g := e.cfg.Guard
	if g == nil || g.ShareBound <= 0 || !e.honest(j) {
		return false
	}
	for _, v := range m.Payload {
		if math.Abs(v) > g.ShareBound || math.IsNaN(v) {
			return true
		}
	}
	return false
}

// broadcastAccusations publishes the turns' range-guard detections once,
// after the last turn, in accuser-major order (each accuser tells every
// alive peer, metadata-sized messages) and globally excludes the accused
// contributors. The accusation copies are drained immediately so later
// phases see clean inboxes.
func (e *engine) broadcastAccusations() error {
	n, sc := e.cfg.N, e.sc
	if sc.nAccused == 0 {
		return nil
	}
	for accuser := 0; accuser < n; accuser++ {
		for accused := 0; accused < n; accused++ {
			if !sc.accusedBy[accuser*n+accused] {
				continue
			}
			e.tel.byzShareRange.Inc()
			for l := 0; l < n; l++ {
				if l == accuser || !e.mesh.Alive(l) {
					continue
				}
				msg := transport.Message{From: accuser, To: l, Kind: KindAccuse,
					ShareIdx: accused, Payload: []float64{float64(accused)}}
				if err := e.mesh.Send(msg); err != nil {
					return err
				}
			}
		}
	}
	for l := 0; l < n; l++ {
		if !e.mesh.Alive(l) {
			continue
		}
		if _, err := e.mesh.Drain(l); err != nil {
			return err
		}
	}
	kept := e.contributors[:0]
	for _, c := range e.contributors {
		if sc.accused[c] {
			e.excluded = append(e.excluded, c)
			e.tel.byzExcluded.Inc()
			continue
		}
		kept = append(kept, c)
	}
	e.contributors = kept
	return nil
}

// corruptSubtotals applies peer j's subtotal-lying behavior in place,
// after honest computation. Corruption covers every index j reports —
// its own and the replicas it backs — so the lie reaches both the
// trusting (plain) and the cross-checking (guarded) collection paths.
func (e *engine) corruptSubtotals(j int) {
	b := e.byz(j)
	if b != ByzInflateSubtotal && b != ByzZeroSubtotal {
		return
	}
	for _, s := range e.sc.replicas[j] {
		sub := e.subtotal(j, s)
		for x := range sub {
			if b == ByzInflateSubtotal {
				sub[x] += InflateOffset
			} else {
				sub[x] = 0
			}
		}
	}
}

// finishLeaderGuarded is the robust replacement for finishLeader: every
// alive holder of every share index submits its subtotal copy, the
// coordinate-wise median merges them, and copies disagreeing with the
// combined value beyond guardTolerance are counted as mismatches. An honest majority of holders per index makes
// the combined value exactly the honest one. The leader's result is
// then audited for equivocation before release.
func (e *engine) finishLeaderGuarded() (*Result, error) {
	n, k, leader := e.cfg.N, e.cfg.K, e.cfg.Leader
	if !e.mesh.Alive(leader) || !e.sc.computed[leader] {
		return nil, ErrLeaderCrashed
	}
	have := e.sc.have
	var recovered []int
	for s := 0; s < n; s++ {
		holders, err := secretshare.HoldersOf(s, n, k)
		if err != nil {
			return nil, err
		}
		var cands [][]float64
		ownerPresent := false
		for _, h := range holders {
			if !e.mesh.Alive(h) {
				continue
			}
			sub := e.subtotal(h, s)
			if sub == nil {
				continue
			}
			if h == s {
				ownerPresent = true
			}
			if h != leader {
				msg := transport.Message{From: h, To: leader, Kind: KindSubtotal, ShareIdx: s, Payload: sub}
				if err := e.mesh.Send(msg); err != nil {
					return nil, err
				}
				e.tel.subtotalsSent.Inc()
			}
			cands = append(cands, sub)
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: no alive holder of subtotal %d", ErrInsufficientPeers, s)
		}
		comb, err := fl.CoordinateMedian{}.Aggregate(cands, nil)
		if err != nil {
			return nil, err
		}
		for _, cand := range cands {
			if linfDiff(cand, comb) > guardTolerance {
				e.mismatches++
				e.tel.byzMismatch.Inc()
			}
		}
		if !ownerPresent {
			recovered = append(recovered, s)
		}
		have[s] = comb
	}
	if len(recovered) > 0 {
		e.tel.subtotalsRecovered.Add(int64(len(recovered)))
	}
	avg := e.average(have)
	if err := e.auditLeader(have, avg); err != nil {
		return nil, err
	}
	// Leave every inbox clean for the mesh bookkeeping.
	for j := 0; j < n; j++ {
		if !e.mesh.Alive(j) {
			continue
		}
		msgs, err := e.mesh.Drain(j)
		if err != nil {
			return nil, err
		}
		e.recycle(msgs)
	}
	return &Result{Avg: avg, Contributors: e.contributors, Recovered: recovered}, nil
}

// auditLeader is the equivocation defence: the leader broadcasts its
// claimed per-index combined subtotals plus the result it announces,
// and every honest peer (a) recomputes the average from the claims and
// compares it against its announced result, and (b) echoes a digest of
// what it received to every other peer so divergent announcements are
// exposed even when each copy is self-consistent. An equivocating
// leader sends the honest claims with a lying result to every second
// receiver, which both checks catch. The claims reveal only sums over
// all contributors' shares — no individual model — so the privacy
// invariant is untouched.
func (e *engine) auditLeader(have [][]float64, avg []float64) error {
	n, leader := e.cfg.N, e.cfg.Leader
	claims := make([]float64, 0, n*e.dim)
	for s := 0; s < n; s++ {
		claims = append(claims, have[s]...)
	}
	var lie []float64
	if e.byz(leader) == ByzEquivocate {
		lie = make([]float64, len(avg))
		for x, v := range avg {
			lie[x] = v + EquivocateOffset
		}
	}
	accused := false
	digests := make(map[int]uint64, n)
	slot := 0
	for j := 0; j < n; j++ {
		if j == leader || !e.mesh.Alive(j) {
			continue
		}
		result := avg
		if lie != nil && slot%2 == 1 {
			result = lie
		}
		slot++
		for _, msg := range []transport.Message{
			{From: leader, To: j, Kind: KindClaims, ShareIdx: -1, Payload: claims},
			{From: leader, To: j, Kind: KindResult, ShareIdx: -1, Payload: result},
		} {
			if err := e.mesh.Send(msg); err != nil {
				return err
			}
		}
		if !e.honest(j) {
			continue
		}
		// Self-consistency: the result must be the average implied by the
		// claims. Summation runs in the same ascending-index order as
		// average(), so an honest leader matches bit-for-bit.
		check := make([]float64, e.dim)
		for s := 0; s < n; s++ {
			for x := 0; x < e.dim; x++ {
				check[x] += claims[s*e.dim+x]
			}
		}
		inv := 1.0 / float64(len(e.contributors))
		for x := range check {
			check[x] *= inv
		}
		if linfDiff(check, result) > guardTolerance {
			accused = true
		}
		digests[j] = auditDigest(claims, result)
	}
	// Digest echo: every honest receiver tells every other alive peer
	// what it heard; any divergence convicts the leader.
	verifiers := make([]int, 0, len(digests))
	for j := range digests {
		verifiers = append(verifiers, j)
	}
	sort.Ints(verifiers)
	for _, j := range verifiers {
		for l := 0; l < n; l++ {
			if l == j || !e.mesh.Alive(l) {
				continue
			}
			msg := transport.Message{From: j, To: l, Kind: KindAudit, ShareIdx: -1,
				Payload: []float64{math.Float64frombits(digests[j])}}
			if err := e.mesh.Send(msg); err != nil {
				return err
			}
		}
	}
	for i := 1; i < len(verifiers); i++ {
		if digests[verifiers[i]] != digests[verifiers[0]] {
			accused = true
		}
	}
	if accused {
		e.leaderAccused = true
		e.tel.byzEquivocation.Inc()
	}
	return nil
}

// auditDigest fingerprints an announced (claims, result) pair.
func auditDigest(claims, result []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range result {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range claims {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// linfDiff returns ‖a−b‖∞ (Inf on length mismatch).
func linfDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	max := 0.0
	for x := range a {
		if d := math.Abs(a[x] - b[x]); d > max {
			max = d
		}
	}
	return max
}
