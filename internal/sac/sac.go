// Package sac implements Secure Average Computation: the baseline
// n-out-of-n protocol (Alg. 2 of the paper) and the fault-tolerant
// k-out-of-n protocol with replicated shares (Alg. 4).
//
// The engine is round-synchronous: the protocol advances through explicit
// phases (share exchange → subtotal computation → subtotal exchange →
// recovery → average) and peers may crash at phase boundaries, which is
// exactly the failure model of the paper's Fig. 3 — a peer that "drops out
// during aggregation" has sent its shares but not its subtotal.
//
// Traffic flows through a transport.Mesh, so every byte is accounted and
// the measured cost can be checked against the paper's closed forms:
//
//	broadcast n-out-of-n (Alg. 2):   2N(N−1)·|w|
//	leader   n-out-of-n (Sec. VII-A): (N²−1)·|w|
//	leader   k-out-of-n (Sec. VII-B): {N(N−1)(N−K+1)+(K−1)}·|w|
package sac

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/secretshare"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Message kinds recorded on the traffic counter.
const (
	KindShare       = "sac/share"
	KindSubtotal    = "sac/subtotal"
	KindRecoveryReq = "sac/recovery-req"
	KindRecovery    = "sac/recovery"
	// KindAccuse is a range-guard accusation broadcast (metadata-sized).
	KindAccuse = "sac/accuse"
	// KindClaims carries the leader's claimed per-index subtotals to an
	// audit verifier (n·|w| floats).
	KindClaims = "sac/claims"
	// KindResult carries the leader's announced result to one peer (|w|).
	KindResult = "sac/result"
	// KindAudit is a verifier's digest echo (metadata-sized).
	KindAudit = "sac/audit"
)

// Mode selects how subtotals are exchanged.
type Mode int

const (
	// ModeBroadcast is Alg. 2: every peer broadcasts its subtotal so every
	// peer can compute the average. Only valid for K = N.
	ModeBroadcast Mode = iota
	// ModeLeader collects subtotals at a designated leader, the form used
	// inside the two-layer system's subgroups (Sec. VII-A cost accounting).
	ModeLeader
)

// Phase identifies a point in the protocol at which a peer may crash.
type Phase int

const (
	// BeforeShares: the peer crashes before sending any share.
	BeforeShares Phase = iota
	// AfterShares: the peer crashes after distributing its shares but
	// before participating in the subtotal exchange (the paper's Fig. 3).
	AfterShares
)

// CrashPlan schedules peer crashes: peer index → phase boundary at which
// the peer fails.
type CrashPlan map[int]Phase

// Errors returned by the engine.
var (
	// ErrAborted reports that an n-out-of-n aggregation hit a crash and,
	// per Alg. 2's semantics, must be restarted with the remaining peers.
	ErrAborted = errors.New("sac: aggregation aborted by peer failure")
	// ErrInsufficientPeers reports that more than N−K peers failed, so the
	// secret average is unrecoverable.
	ErrInsufficientPeers = errors.New("sac: fewer than K peers alive")
	// ErrLeaderCrashed reports a crash of the designated leader, which is
	// handled by Raft re-election above this engine.
	ErrLeaderCrashed = errors.New("sac: leader crashed")
)

// Config parameterizes one SAC aggregation.
type Config struct {
	N      int // number of participating peers
	K      int // reconstruction threshold; K = N disables replication
	Leader int // leader peer for ModeLeader
	Mode   Mode
	// Divider selects the share-splitting scheme; nil uses the paper's
	// Alg. 1 (ScalarDivider).
	Divider secretshare.Divider
	// Rng drives share randomness; nil seeds a default source.
	Rng *rand.Rand
	// Telemetry, when non-nil, receives sac/* counters, per-phase
	// duration histograms, and one trace event per aggregation.
	Telemetry *telemetry.Registry
	// Scratch, when non-nil, lets the engine reuse share blocks,
	// subtotal vectors and receive containers across same-shaped rounds
	// instead of reallocating them (see Scratch). Results are
	// bit-identical either way; payloads observed on the mesh alias
	// scratch memory, so observers must copy what they retain.
	Scratch *Scratch
	// Adversary marks peers with Byzantine behaviors for this round
	// (nil: everyone honest). See Behavior.
	Adversary AdversaryPlan
	// Guard arms the robust-aggregation defences (nil: the paper's
	// crash-only protocol; lies go undetected). See Guard. Note that
	// with K = N a range-guard exclusion aborts the round (Alg. 2
	// semantics: a missing partition is unrecoverable).
	Guard *Guard
}

func (c *Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("sac: N = %d", c.N)
	}
	if c.K < 1 || c.K > c.N {
		return fmt.Errorf("sac: K = %d out of [1,%d]", c.K, c.N)
	}
	if c.Mode == ModeBroadcast && c.K != c.N {
		return fmt.Errorf("sac: broadcast mode requires K = N (Alg. 2 has no recovery)")
	}
	if c.Mode == ModeLeader && (c.Leader < 0 || c.Leader >= c.N) {
		return fmt.Errorf("sac: leader %d out of [0,%d)", c.Leader, c.N)
	}
	if c.Guard != nil && c.Guard.CrossCheck && c.Mode != ModeLeader {
		return fmt.Errorf("sac: cross-check guard requires leader mode")
	}
	for p, b := range c.Adversary {
		if p < 0 || p >= c.N {
			return fmt.Errorf("sac: adversary peer %d out of [0,%d)", p, c.N)
		}
		if !b.valid() {
			return fmt.Errorf("sac: unknown adversary behavior %q", b)
		}
	}
	return nil
}

// Result reports the outcome of an aggregation.
type Result struct {
	// Avg is the secure average over Contributors' models.
	Avg []float64
	// Contributors lists the peers whose models entered the average —
	// including peers that crashed after distributing shares (Fig. 3).
	Contributors []int
	// Recovered lists share indices whose subtotals were fetched from
	// replica holders because the owner crashed.
	Recovered []int
	// Excluded lists contributors removed by the range guard: their
	// shares were provably forged, so their models left the average.
	Excluded []int
	// Mismatches counts subtotal copies that disagreed with the
	// cross-checked combination beyond the guard tolerance.
	Mismatches int
	// LeaderAccused reports that the leader-result audit convicted the
	// leader of equivocation; callers must discard Avg (the engine
	// returns the honest combination, but a real deployment would
	// re-run under a new leader).
	LeaderAccused bool
}

// Run executes one SAC aggregation of models (models[i] is peer i's flat
// weight vector; all equal length) over the mesh, applying the crash plan.
// Peers already crashed on the mesh are treated as BeforeShares failures.
func Run(mesh transport.Network, cfg Config, models [][]float64, crash CrashPlan) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if mesh.N() != cfg.N {
		return nil, fmt.Errorf("sac: mesh has %d peers, config %d", mesh.N(), cfg.N)
	}
	if len(models) != cfg.N {
		return nil, fmt.Errorf("sac: %d models for %d peers", len(models), cfg.N)
	}
	dim := len(models[0])
	for i, m := range models {
		if len(m) != dim {
			return nil, fmt.Errorf("sac: model %d has %d weights, want %d", i, len(m), dim)
		}
	}
	div := cfg.Divider
	if div == nil {
		div = secretshare.ScalarDivider{}
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}

	e := &engine{mesh: mesh, cfg: cfg, dim: dim, div: div, rng: rng, crash: crash, tel: newSACTel(cfg.Telemetry), sc: cfg.Scratch}
	e.sc.begin(cfg.N, dim)
	e.tel.roundsStarted.Inc()
	res, err := e.run(models)
	if err != nil {
		e.tel.roundsFailed.Inc()
		return nil, err
	}
	e.tel.roundsOK.Inc()
	e.tel.reg.Trace("sac/round", uint64(cfg.Leader), -1,
		telemetry.F("n", int64(cfg.N)),
		telemetry.F("k", int64(cfg.K)),
		telemetry.F("contributors", int64(len(res.Contributors))),
		telemetry.F("recovered", int64(len(res.Recovered))))
	return res, nil
}

// sacTel holds the engine's pre-resolved metric handles (all nil, hence
// no-ops, when no registry is configured).
type sacTel struct {
	reg                *telemetry.Registry
	roundsStarted      *telemetry.Counter
	roundsOK           *telemetry.Counter
	roundsFailed       *telemetry.Counter
	sharesSent         *telemetry.Counter
	subtotalsSent      *telemetry.Counter
	subtotalsRecovered *telemetry.Counter
	peersCrashed       *telemetry.Counter
	msgsInvalid        *telemetry.Counter
	byzShareRange      *telemetry.Counter
	byzMismatch        *telemetry.Counter
	byzEquivocation    *telemetry.Counter
	byzExcluded        *telemetry.Counter
	phaseShare         *telemetry.Histogram
	phaseSubtotal      *telemetry.Histogram
	phaseFinish        *telemetry.Histogram
}

// phaseBoundsUs buckets per-phase durations in microseconds.
var phaseBoundsUs = []float64{100, 1_000, 10_000, 100_000, 1_000_000}

func newSACTel(reg *telemetry.Registry) sacTel {
	return sacTel{
		reg:                reg,
		roundsStarted:      reg.Counter("sac/rounds_started"),
		roundsOK:           reg.Counter("sac/rounds_ok"),
		roundsFailed:       reg.Counter("sac/rounds_failed"),
		sharesSent:         reg.Counter("sac/shares_sent"),
		subtotalsSent:      reg.Counter("sac/subtotals_sent"),
		subtotalsRecovered: reg.Counter("sac/subtotals_recovered"),
		peersCrashed:       reg.Counter("sac/peers_crashed"),
		msgsInvalid:        reg.Counter("sac/msgs_invalid"),
		byzShareRange:      reg.Counter("sac/byzantine_share_range"),
		byzMismatch:        reg.Counter("sac/byzantine_subtotal_mismatch"),
		byzEquivocation:    reg.Counter("sac/byzantine_equivocation"),
		byzExcluded:        reg.Counter("sac/byzantine_excluded"),
		phaseShare:         reg.Histogram("sac/phase_share_us", phaseBoundsUs),
		phaseSubtotal:      reg.Histogram("sac/phase_subtotal_us", phaseBoundsUs),
		phaseFinish:        reg.Histogram("sac/phase_finish_us", phaseBoundsUs),
	}
}

type engine struct {
	mesh  transport.Network
	cfg   Config
	dim   int
	div   secretshare.Divider
	rng   *rand.Rand
	crash CrashPlan
	tel   sacTel
	sc    *Scratch // nil: allocate per round

	contributors []int
	// subtotals[peer][shareIdx] — computed by peers holding shareIdx.
	subtotals []map[int][]float64

	// Byzantine bookkeeping (see byzantine.go).
	excluded      []int
	mismatches    int
	leaderAccused bool
}

func (e *engine) crashAt(peer int, phase Phase) bool {
	p, ok := e.crash[peer]
	return ok && p == phase
}

// replicaSets returns the (n, k) replica assignment, served from the
// scratch cache when one is wired (scratchless rounds compute it fresh).
func (e *engine) replicaSets(n, k int) ([][]int, error) {
	if e.sc != nil {
		return e.sc.replicaSets(n, k)
	}
	sets := make([][]int, n)
	for j := 0; j < n; j++ {
		idx, err := secretshare.ReplicaIndices(j, n, k)
		if err != nil {
			return nil, err
		}
		sets[j] = idx
	}
	return sets, nil
}

func (e *engine) run(models [][]float64) (*Result, error) {
	n, k := e.cfg.N, e.cfg.K
	t0 := e.tel.reg.Now()

	// Phase 1 — share exchange (Alg. 2 lines 2–5 / Alg. 4 lines 2–10).
	// received[j][shareIdx][contributor] = share vector.
	received := e.sc.receivedMaps(n)
	// Replica assignment depends only on (n, k) — compute each
	// receiver's share indices once, not once per contributor, and with
	// a Scratch only once per shape (the cache survives across rounds).
	replicas, err := e.replicaSets(n, k)
	if err != nil {
		return nil, err
	}
	var sharesSent int64 // batched into one atomic Add below
	for i := 0; i < n; i++ {
		if !e.mesh.Alive(i) {
			continue
		}
		if e.crashAt(i, BeforeShares) {
			if err := e.mesh.Crash(i); err != nil {
				return nil, err
			}
			e.tel.peersCrashed.Inc()
			continue
		}
		// Model poisoning happens before division: the adversary shares a
		// scaled or sign-flipped update, consistently across receivers.
		shares, err := e.divide(i, attackModel(e.byz(i), models[i]), n)
		if err != nil {
			return nil, err
		}
		e.contributors = append(e.contributors, i)
		for j := 0; j < n; j++ {
			for _, s := range replicas[j] {
				if j == i {
					// Local retention — no traffic.
					e.store(received, j, s, i, shares[s])
					continue
				}
				payload := shares[s]
				if e.byz(i) == ByzCorruptShares {
					// Each receiver gets its own perturbed copy; the true
					// share stays only with the sender.
					payload = e.corruptedCopy(payload)
				}
				msg := transport.Message{From: i, To: j, Kind: KindShare, ShareIdx: s, Payload: payload}
				if err := e.mesh.Send(msg); err != nil {
					return nil, err
				}
				sharesSent++
			}
		}
	}
	if sharesSent > 0 {
		e.tel.sharesSent.Add(sharesSent)
	}
	if len(e.contributors) == 0 {
		return nil, ErrInsufficientPeers
	}

	// Deliver shares: drain each alive peer's inbox. Anything that is not
	// a well-formed share for this round — wrong kind, share index outside
	// [0,n), payload of the wrong dimension, or a stale message replayed
	// from an earlier round — is discarded: a malformed or replayed
	// message must never panic the engine or double-count a model.
	var accusations []accusation
	accusedPair := make(map[[2]int]bool)
	drained := e.sc.drainedInboxes(n) // kept until the shares are summed
	for j := 0; j < n; j++ {
		if !e.mesh.Alive(j) {
			continue
		}
		msgs, err := e.mesh.Drain(j)
		if err != nil {
			return nil, err
		}
		drained = append(drained, msgs)
		for _, m := range msgs {
			switch {
			case !e.validShare(m):
				e.tel.msgsInvalid.Inc()
			case e.shareOutOfRange(j, m):
				// Range guard: an honest share is a fraction of its model,
				// so a too-large share is provably forged. Accuse once per
				// (accuser, sender) pair; the share is not stored.
				if pair := [2]int{j, m.From}; !accusedPair[pair] {
					accusedPair[pair] = true
					accusations = append(accusations, accusation{accuser: j, accused: m.From})
				}
			default:
				e.store(received, j, m.ShareIdx, m.From, m.Payload)
			}
		}
	}
	if err := e.broadcastAccusations(accusations); err != nil {
		return nil, err
	}
	if len(e.contributors) == 0 {
		return nil, fmt.Errorf("%w: every contributor was excluded by the range guard", ErrInsufficientPeers)
	}
	t1 := e.tel.reg.Now()
	e.tel.phaseShare.Observe(float64(t1 - t0))

	// Alg. 2 semantics: with K = N any pre-share crash leaves the other
	// peers missing a partition, so the aggregation aborts.
	if k == n && len(e.contributors) < n {
		return nil, fmt.Errorf("%w: %d of %d peers sent shares", ErrAborted, len(e.contributors), n)
	}

	// Phase 2 — subtotal computation (Alg. 2 line 6 / Alg. 4 lines 11–13).
	// A peer that crashes AfterShares has distributed its shares (so its
	// model still counts) but computes/sends nothing further.
	e.subtotals = e.sc.subtotalSlice(n)
	for j := 0; j < n; j++ {
		if !e.mesh.Alive(j) {
			continue
		}
		if e.crashAt(j, AfterShares) {
			if err := e.mesh.Crash(j); err != nil {
				return nil, err
			}
			e.tel.peersCrashed.Inc()
			continue
		}
		e.subtotals[j] = e.sc.innerMap()
		for s, byContrib := range received[j] {
			sub := e.sc.subVec(e.dim)
			complete := true
			for _, c := range e.contributors {
				sh, ok := byContrib[c]
				if !ok {
					complete = false
					break
				}
				for x, v := range sh {
					sub[x] += v
				}
			}
			if complete {
				e.subtotals[j][s] = sub
			}
		}
		e.corruptSubtotals(j)
	}
	// Every share that crossed the mesh has now been summed (or sits with
	// a peer that just crashed): the receivers are done with what they
	// drained. A peer's own shares never went through the mesh.
	for j, msgs := range drained {
		e.recycle(msgs)
		drained[j] = nil
	}

	// Phase 3 — subtotal exchange.
	t2 := e.tel.reg.Now()
	e.tel.phaseSubtotal.Observe(float64(t2 - t1))
	var res *Result
	switch {
	case e.cfg.Mode == ModeBroadcast:
		res, err = e.finishBroadcast()
	case e.cfg.Guard != nil && e.cfg.Guard.CrossCheck:
		res, err = e.finishLeaderGuarded()
	default:
		res, err = e.finishLeader()
	}
	if res != nil {
		res.Excluded = e.excluded
		res.Mismatches = e.mismatches
		res.LeaderAccused = e.leaderAccused
	}
	e.tel.phaseFinish.Observe(float64(e.tel.reg.Now() - t2))
	return res, err
}

// validShare reports whether m is a well-formed share message for this
// round: right kind, in-range share index and sender, and a payload of
// the model dimension. Duplicates are tolerated upstream — store keys by
// (share index, contributor), so a replayed share overwrites rather than
// double-counts.
func (e *engine) validShare(m transport.Message) bool {
	return m.Kind == KindShare &&
		m.ShareIdx >= 0 && m.ShareIdx < e.cfg.N &&
		m.From >= 0 && m.From < e.cfg.N &&
		len(m.Payload) == e.dim
}

// validSubtotal is the analogous filter for subtotal messages.
func (e *engine) validSubtotal(m transport.Message) bool {
	return m.Kind == KindSubtotal &&
		m.ShareIdx >= 0 && m.ShareIdx < e.cfg.N &&
		m.From >= 0 && m.From < e.cfg.N &&
		len(m.Payload) == e.dim
}

func (e *engine) store(received []map[int]map[int][]float64, peer, shareIdx, contributor int, share []float64) {
	byContrib, ok := received[peer][shareIdx]
	if !ok {
		byContrib = e.sc.innerMap()
		received[peer][shareIdx] = byContrib
	}
	byContrib[contributor] = share
}

// divide splits contributor i's model into n shares — through the
// flat-block scratch when one is configured, so steady-state rounds
// reuse the same n·dim backing array per contributor.
func (e *engine) divide(i int, w []float64, n int) ([][]float64, error) {
	if e.sc == nil {
		return e.div.Divide(w, n, e.rng)
	}
	block, views := e.sc.shareScratch(i)
	shares, block, err := e.div.DivideInto(w, n, e.rng, block, views)
	if err != nil {
		return nil, err
	}
	e.sc.keepShareScratch(i, block, shares)
	return shares, nil
}

// finishBroadcast implements Alg. 2 lines 7–9: every peer broadcasts its
// own subtotal; everyone averages. Any missing subtotal aborts.
func (e *engine) finishBroadcast() (*Result, error) {
	n := e.cfg.N
	for i := 0; i < n; i++ {
		if !e.mesh.Alive(i) {
			continue
		}
		sub, ok := e.subtotals[i][i]
		if !ok {
			return nil, fmt.Errorf("%w: peer %d missing own subtotal", ErrAborted, i)
		}
		for j := 0; j < n; j++ {
			if j == i || !e.mesh.Alive(j) {
				continue
			}
			msg := transport.Message{From: i, To: j, Kind: KindSubtotal, ShareIdx: i, Payload: sub}
			if err := e.mesh.Send(msg); err != nil {
				return nil, err
			}
			e.tel.subtotalsSent.Inc()
		}
	}
	// Every alive peer must now hold all N subtotals.
	alive := e.mesh.AlivePeers()
	if len(alive) < n {
		return nil, fmt.Errorf("%w: %d of %d peers alive at subtotal exchange", ErrAborted, len(alive), n)
	}
	// Average at peer 0's view (identical everywhere): drain inboxes and sum.
	var avg []float64
	for _, j := range alive {
		msgs, err := e.mesh.Drain(j)
		if err != nil {
			return nil, err
		}
		got := e.sc.innerMap()
		got[j] = e.subtotals[j][j]
		for _, m := range msgs {
			if e.validSubtotal(m) {
				got[m.ShareIdx] = m.Payload
			} else {
				e.tel.msgsInvalid.Inc()
			}
		}
		if len(got) != n {
			return nil, fmt.Errorf("%w: peer %d holds %d of %d subtotals", ErrAborted, j, len(got), n)
		}
		a := e.average(got)
		if avg == nil {
			avg = a
		}
		e.recycle(msgs)
	}
	return &Result{Avg: avg, Contributors: e.contributors}, nil
}

// finishLeader implements Alg. 4 lines 14–20: owners send the leader the
// subtotals it lacks; crashed owners' subtotals are recovered from
// replica holders.
func (e *engine) finishLeader() (*Result, error) {
	n, k, leader := e.cfg.N, e.cfg.K, e.cfg.Leader
	if !e.mesh.Alive(leader) || e.subtotals[leader] == nil {
		return nil, ErrLeaderCrashed
	}
	have := e.sc.haveMap(n)
	for s, sub := range e.subtotals[leader] {
		have[s] = sub
	}
	// Owners i ≠ leader send ps_wt_i for the K−1 indices the leader lacks
	// (Alg. 4 lines 14–16). In the round-synchronous engine every
	// non-leader owner of a missing index sends it.
	var recovered []int
	for s := 0; s < n; s++ {
		if _, ok := have[s]; ok {
			continue
		}
		if e.mesh.Alive(s) && e.subtotals[s] != nil {
			if sub, ok := e.subtotals[s][s]; ok {
				msg := transport.Message{From: s, To: leader, Kind: KindSubtotal, ShareIdx: s, Payload: sub}
				if err := e.mesh.Send(msg); err != nil {
					return nil, err
				}
				e.tel.subtotalsSent.Inc()
				have[s] = sub
				continue
			}
		}
		// Owner is down — recover from a replica holder (lines 17–18).
		holders, err := secretshare.HoldersOf(s, n, k)
		if err != nil {
			return nil, err
		}
		found := false
		for _, h := range holders {
			if h == s || !e.mesh.Alive(h) || e.subtotals[h] == nil {
				continue
			}
			sub, ok := e.subtotals[h][s]
			if !ok {
				continue
			}
			// Request (metadata-sized) and response (|w|).
			req := transport.Message{From: leader, To: h, Kind: KindRecoveryReq, ShareIdx: s, Payload: []float64{float64(s)}}
			if err := e.mesh.Send(req); err != nil {
				return nil, err
			}
			resp := transport.Message{From: h, To: leader, Kind: KindRecovery, ShareIdx: s, Payload: sub}
			if err := e.mesh.Send(resp); err != nil {
				return nil, err
			}
			have[s] = sub
			recovered = append(recovered, s)
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("%w: no alive holder of subtotal %d", ErrInsufficientPeers, s)
		}
	}
	// Drain the leader's inbox for completeness of the mesh bookkeeping;
	// the engine averages the owners' copies, so what arrived goes back.
	msgs, err := e.mesh.Drain(leader)
	if err != nil {
		return nil, err
	}
	e.recycle(msgs)
	if len(recovered) > 0 {
		e.tel.subtotalsRecovered.Add(int64(len(recovered)))
	}
	avg := e.average(have)
	if e.byz(leader) == ByzEquivocate {
		// Without the audit the lie goes unnoticed: the leader announces
		// an offset result and nobody can tell.
		for x := range avg {
			avg[x] += EquivocateOffset
		}
	}
	return &Result{Avg: avg, Contributors: e.contributors, Recovered: recovered}, nil
}

// recycle hands drained payloads back to the mesh once nothing reads
// them any more (transport.Network's ownership rules).
func (e *engine) recycle(msgs []transport.Message) {
	for _, m := range msgs {
		e.mesh.Recycle(m.Payload)
	}
}

// average sums all n subtotals and divides by the number of contributing
// models (Eq. 1–3 generalized to dropouts). Summation runs in ascending
// share-index order so results are bit-for-bit deterministic (map order
// would reorder floating-point additions).
// Avg is always freshly allocated — it is the one vector that escapes
// the round, so it must not alias reusable scratch.
func (e *engine) average(subtotals map[int][]float64) []float64 {
	keys := e.sc.sortKeys(len(subtotals))
	for k := range subtotals {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	avg := make([]float64, e.dim)
	for _, k := range keys {
		for x, v := range subtotals[k] {
			avg[x] += v
		}
	}
	inv := 1.0 / float64(len(e.contributors))
	for x := range avg {
		avg[x] *= inv
	}
	return avg
}

// RunWithRestart models the baseline Alg. 2 failure semantics end to end:
// when the aggregation aborts because of a crash, it restarts from the
// beginning with the remaining peers (the paper's Sec. II-A criticism of
// [4] — all traffic of the failed attempt is wasted). It returns the
// final result and the number of attempts.
func RunWithRestart(mesh transport.Network, cfg Config, models [][]float64, crash CrashPlan) (*Result, int, error) {
	attempts := 0
	for {
		attempts++
		res, err := Run(mesh, cfg, models, crash)
		if err == nil {
			return res, attempts, nil
		}
		if !errors.Is(err, ErrAborted) {
			return nil, attempts, err
		}
		// Restart with the remaining peers: re-index alive peers densely.
		alive := mesh.AlivePeers()
		if len(alive) < 2 {
			return nil, attempts, ErrInsufficientPeers
		}
		reIndex := make(map[int]int, len(alive))
		subModels := make([][]float64, len(alive))
		for newID, old := range alive {
			reIndex[old] = newID
			subModels[newID] = models[old]
		}
		// Carry over crash plans that have not fired yet (a peer whose
		// plan fired is no longer alive, so it has no new index).
		subCrash := CrashPlan{}
		for old, ph := range crash {
			if newID, ok := reIndex[old]; ok {
				subCrash[newID] = ph
			}
		}
		mesh = transport.NewMesh(len(alive), mesh.Counter())
		cfg.N, cfg.K = len(alive), len(alive)
		cfg.Leader = 0
		models = subModels
		crash = subCrash
	}
}
