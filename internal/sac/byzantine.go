// Byzantine adversary model and robust-aggregation guard of a SAC round.
//
// The paper's protocol tolerates crash faults only; this file is the
// Byzantine side of a Peer — the scenario space p2pfl-chaos's byzantine
// track explores. An AdversaryPlan marks peers with a Behavior, each
// modelling one classic attack on a secret-sharing aggregation (see the
// Byz constants), and a marked Peer takes the matching branch where the
// protocol gives it the chance.
//
// The Guard is the defence, and each part of it is something an honest
// Peer does on its own: a share-range filter in Step (honest
// ScalarDivider shares are collinear fractions f·w with f ∈ (0,1], so
// ‖share‖∞ never exceeds ‖w‖∞ ≤ ShareBound; anything larger is provably
// forged and its sender is accused and excluded), a cross-checked
// subtotal combination in Finish (every holder of a share index submits
// its copy and their coordinate-wise median outvotes a minority of
// liars), and a leader-result audit (the leader sends its claimed
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
	"hash/fnv"
	"math"
	"math/rand"

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

// Guard arms a round's robust-aggregation defences. The zero value
// of each field disables that defence; Config.Guard == nil disables all
// of them (the crash-only protocol of the paper).
type Guard struct {
	// ShareBound, when positive, is the honest-share magnitude bound:
	// honest peers accuse (and every peer then excludes) any
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
// drawn from rng — a fresh copy per receiver, so different holders of
// the same share index receive inconsistent values.
func corruptedCopy(share []float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(share))
	for x, v := range share {
		out[x] = v + (rng.Float64()*2-1)*CorruptNoiseAmp
	}
	return out
}

// outOfRange applies the range guard to a received share: only honest
// receivers screen (adversarial peers never help with accusations or
// audits), and only when a positive bound is armed.
func (p *Peer) outOfRange(share []float64) bool {
	g := p.cfg.Guard
	if g == nil || g.ShareBound <= 0 || p.byz != ByzNone {
		return false
	}
	for _, v := range share {
		if math.Abs(v) > g.ShareBound || math.IsNaN(v) {
			return true
		}
	}
	return false
}

// auditState is a peer's part in the leader-result audit, the
// equivocation defence. The leader sends every other peer the per-index
// subtotals it combined and the result it announces; every honest peer
// (a) recomputes the average from the claims and compares it with the
// result it was sent, and (b) echoes a digest of what it received to
// every other peer, so divergent announcements are exposed even when
// each copy is self-consistent. An equivocating leader sends the honest
// claims with a lying result to every second receiver, which both checks
// catch. The claims reveal only sums over all contributors' shares — no
// individual model — so the privacy invariant is untouched.
type auditState struct {
	claimed        []float64 // at the leader: the n subtotals it claims, flat
	claims, result []float64 // at a verifier: what the leader sent, kept to the round's end
	digest         uint64    // the last digest p learnt, its own or an echo,
	heard          bool      // once it has learnt one
	convicted      bool      // a check failed or two digests differ
}

func (a *auditState) hear(digest uint64) {
	a.convicted = a.convicted || a.heard && digest != a.digest
	a.digest, a.heard = digest, true
}

// announce queues the leader's audit messages to every peer not down.
func (p *Peer) announce(avg []float64) {
	results := [2][]float64{avg, avg}
	if p.byz == ByzEquivocate {
		results[1] = make([]float64, len(avg))
		for x, v := range avg {
			results[1][x] = v + EquivocateOffset
		}
	}
	receiver := 0
	for j, down := range p.down {
		if j != p.id && !down {
			p.send(j, KindClaims, -1, p.audit.claimed)
			p.send(j, KindResult, -1, results[receiver%2])
			receiver++
		}
	}
}

// stepAudit takes one audit message: any other verifier's digest, or the
// first copy of the leader's claims or result. An honest peer that then
// holds both makes its two checks. Self-consistency: the result must be
// the average implied by the claims, summed in the same ascending-index
// order as Finish, so an honest leader matches bit-for-bit. Digest echo:
// p tells every other peer not known down what it heard; any divergence
// convicts the leader.
func (p *Peer) stepAudit(m transport.Message) bool {
	a, fromLeader := &p.audit, m.From == p.cfg.Leader
	switch {
	case !p.sealed || !p.cfg.crossChecks() || len(p.contributors) == 0:
		return false
	case m.Kind == KindAudit && !fromLeader && len(m.Payload) == 1:
		if p.byz == ByzNone {
			a.hear(math.Float64bits(m.Payload[0]))
		}
		p.release(m.Payload)
		return true
	case m.Kind == KindClaims && fromLeader && a.claims == nil && len(m.Payload) == p.cfg.N*p.dim:
		a.claims = m.Payload
	case m.Kind == KindResult && fromLeader && a.result == nil && len(m.Payload) == p.dim:
		a.result = m.Payload
	default:
		return false
	}
	if a.claims == nil || a.result == nil || p.byz != ByzNone {
		return true
	}
	inv := 1.0 / float64(len(p.contributors))
	for x, announced := range a.result {
		check := 0.0
		for s := 0; s < p.cfg.N; s++ {
			check += a.claims[s*p.dim+x]
		}
		if math.Abs(float64(check*inv)-announced) > guardTolerance {
			a.convicted = true
		}
	}
	digest := auditDigest(a.claims, a.result)
	a.hear(digest)
	p.sendAll(KindAudit, -1, []float64{math.Float64frombits(digest)})
	return true
}

// Convicts reports whether the audit, as p saw it, convicts the leader.
func (p *Peer) Convicts() bool { return p.audit.convicted }

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
