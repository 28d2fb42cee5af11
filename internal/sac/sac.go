// Package sac implements Secure Average Computation: the baseline
// n-out-of-n protocol (Alg. 2 of the paper) and the fault-tolerant
// k-out-of-n protocol with replicated shares (Alg. 4).
//
// The engine is round-synchronous: the protocol advances through explicit
// phases (share exchange → subtotal computation → subtotal exchange →
// recovery → average) and peers may crash at phase boundaries, which is
// exactly the failure model of the paper's Fig. 3 — a peer that "drops out
// during aggregation" has sent its shares but not its subtotal. The first
// two phases are fused: contributors take turns in ascending order, and
// each receiver adds a turn's shares to its running subtotals as they
// arrive, so a peer holds its n−k+1 subtotals and never the shares.
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
	// Scratch is the working set the engine runs on (see Scratch): nil
	// borrows a spare one for the call, non-nil is one the caller keeps
	// across same-shaped rounds. Results are bit-identical either way;
	// payloads observed on the mesh alias the working set, so observers
	// must copy what they retain.
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
	e, err := newEngine(mesh, cfg, models, crash)
	if err != nil {
		return nil, err
	}
	defer e.release()
	return e.report(e.run(models))
}

// newEngine validates one aggregation's inputs, arms its working set and
// counts the round as started. The caller must release the engine.
func newEngine(mesh transport.Network, cfg Config, models [][]float64, crash CrashPlan) (*engine, error) {
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
	sc, borrowed := cfg.Scratch, cfg.Scratch == nil
	if borrowed {
		sc = borrowScratch(cfg.N, cfg.K, dim)
	}
	e := &engine{mesh: mesh, cfg: cfg, dim: dim, div: div, rng: rng, crash: crash,
		tel: newSACTel(cfg.Telemetry), sc: sc, borrowed: borrowed}
	if err := sc.begin(cfg.N, cfg.K, dim); err != nil {
		e.release()
		return nil, err
	}
	e.tel.roundsStarted.Inc()
	return e, nil
}

// release ends the engine's use of its working set; a borrowed one goes
// back to the spare list.
func (e *engine) release() {
	e.sc.end()
	if e.borrowed {
		returnScratch(e.sc)
	}
}

// report records a finished aggregation on the round counters and the
// trace.
func (e *engine) report(res *Result, err error) (*Result, error) {
	if err != nil {
		e.tel.roundsFailed.Inc()
		return nil, err
	}
	e.tel.roundsOK.Inc()
	e.tel.reg.Trace("sac/round", uint64(e.cfg.Leader), -1,
		telemetry.F("n", int64(e.cfg.N)),
		telemetry.F("k", int64(e.cfg.K)),
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
	mesh     transport.Network
	cfg      Config
	dim      int
	div      secretshare.Divider
	rng      *rand.Rand
	crash    CrashPlan
	tel      sacTel
	sc       *Scratch // the working set; never nil
	borrowed bool     // sc came from the spare list

	contributors []int

	// Byzantine bookkeeping (see byzantine.go).
	excluded      []int
	mismatches    int
	leaderAccused bool
}

func (e *engine) crashAt(peer int, phase Phase) bool {
	p, ok := e.crash[peer]
	return ok && p == phase
}

func (e *engine) run(models [][]float64) (*Result, error) {
	n, k := e.cfg.N, e.cfg.K
	t0 := e.tel.reg.Now()

	// Phases 1–2 — share exchange and subtotal computation, fused (Alg. 2
	// lines 2–6 / Alg. 4 lines 2–13).
	if err := e.foldShares(models); err != nil {
		return nil, err
	}
	if err := e.broadcastAccusations(); err != nil {
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

	// A peer that crashes AfterShares has distributed its shares (so its
	// model still counts) but reports nothing further; a subtotal liar
	// corrupts what it is about to report.
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
		e.sc.computed[j] = true
		e.corruptSubtotals(j)
	}

	// Phase 3 — subtotal exchange.
	t2 := e.tel.reg.Now()
	e.tel.phaseSubtotal.Observe(float64(t2 - t1))
	res, err := e.finish()
	e.tel.phaseFinish.Observe(float64(e.tel.reg.Now() - t2))
	return res, err
}

// finish runs the subtotal exchange over the subtotals the peers report
// and fills in the guard's findings.
func (e *engine) finish() (*Result, error) {
	var (
		res *Result
		err error
	)
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
	return res, err
}

// foldShares runs the share exchange one contributor at a time, in
// ascending order: contributor i is divided into the engine's one share
// block, its shares are sent, and every receiver drains, screens and
// adds what arrived into its running subtotals before contributor i+1
// overwrites the block. Turn i completes before turn i+1 starts, so each
// subtotal sums its contributors in ascending order whatever the fabric
// does — the summation order the results are pinned to.
func (e *engine) foldShares(models [][]float64) error {
	n, sc := e.cfg.N, e.sc
	// Who takes part is settled before the first turn: a peer that is to
	// crash BeforeShares does so at its own turn, and until then its inbox
	// fills unread (the bytes sent toward it count all the same).
	for j := 0; j < n; j++ {
		sc.receiving[j] = e.mesh.Alive(j) && !e.crashAt(j, BeforeShares)
	}
	var sharesSent int64 // batched into one atomic Add below
	for i := 0; i < n; i++ {
		if !sc.receiving[i] {
			if e.mesh.Alive(i) { // scheduled to crash BeforeShares: now
				if err := e.mesh.Crash(i); err != nil {
					return err
				}
				e.tel.peersCrashed.Inc()
			}
			continue
		}
		// Model poisoning happens before division: the adversary shares a
		// scaled or sign-flipped update, consistently across receivers.
		shares, block, err := e.div.DivideInto(attackModel(e.byz(i), models[i]), n, e.rng, sc.block, sc.views)
		if err != nil {
			return err
		}
		sc.block, sc.views = block, shares
		e.contributors = append(e.contributors, i)
		corrupt := e.byz(i) == ByzCorruptShares
		for j := 0; j < n; j++ {
			for t, s := range sc.replicas[j] {
				if j == i {
					// Local retention — no traffic.
					sc.pending[i*sc.r+t] = shares[s]
					continue
				}
				payload := shares[s]
				if corrupt {
					// Each receiver gets its own perturbed copy; the true
					// share stays only with the sender.
					payload = e.corruptedCopy(payload)
				}
				msg := transport.Message{From: i, To: j, Kind: KindShare, ShareIdx: s, Payload: payload}
				if err := e.mesh.Send(msg); err != nil {
					return err
				}
				sharesSent++
			}
		}
		if err := e.receiveTurn(i); err != nil {
			return err
		}
		e.foldTurn(i)
	}
	if sharesSent > 0 {
		e.tel.sharesSent.Add(sharesSent)
	}
	if len(e.contributors) == 0 {
		return ErrInsufficientPeers
	}
	return nil
}

// receiveTurn drains every receiver in contributor i's turn. A message
// is accepted only as a share from i, of the model dimension, for an
// index its receiver holds; the last duplicate wins. Anything else —
// another kind, another sender, a share index the receiver does not
// hold, a stale message replayed from an earlier round — is discarded: a
// malformed or replayed message must never panic the engine or count a
// model twice. Accepted shares are screened and held in sc.pending;
// nothing is added to a subtotal until foldTurn.
func (e *engine) receiveTurn(i int) error {
	n, sc := e.cfg.N, e.sc
	for j := 0; j < n; j++ {
		if !sc.receiving[j] {
			continue
		}
		msgs, err := e.mesh.Drain(j)
		if err != nil {
			return err
		}
		for _, m := range msgs {
			a := e.shareSlot(i, j, m)
			switch {
			case a < 0:
				e.tel.msgsInvalid.Inc()
				e.mesh.Recycle(m.Payload)
			case e.shareOutOfRange(j, m):
				// Range guard: an honest share is a fraction of its model,
				// so a too-large share is provably forged. Accuse once per
				// (accuser, sender) pair; none of i's shares will be folded.
				if !sc.accusedBy[j*n+i] {
					sc.accusedBy[j*n+i] = true
					sc.nAccused++
				}
				sc.accused[i] = true
				e.mesh.Recycle(m.Payload)
			default:
				if dup := sc.pending[a]; dup != nil {
					e.mesh.Recycle(dup)
				}
				sc.pending[a] = m.Payload
			}
		}
	}
	return nil
}

// shareSlot returns the accumulator message m feeds when receiver j
// drains it in contributor i's turn, or −1 when m is not a well-formed
// share of that turn. Nothing arrives at i itself in its own turn.
func (e *engine) shareSlot(i, j int, m transport.Message) int {
	if m.Kind != KindShare || m.From != i || j == i ||
		m.ShareIdx < 0 || m.ShareIdx >= e.cfg.N || len(m.Payload) != e.dim {
		return -1
	}
	return e.sc.slot[j*e.cfg.N+m.ShareIdx]
}

// foldTurn ends contributor i's turn: every held share — what the
// receivers accepted and what i retained — is added to its running
// subtotal, or, when any honest receiver accused i, none is (all or
// none, so no subtraction is ever needed). Received payloads go back to
// the mesh at once; i's own shares never went through it.
func (e *engine) foldTurn(i int) {
	sc := e.sc
	for a, share := range sc.pending {
		if share == nil {
			continue
		}
		sc.pending[a] = nil
		if !sc.accused[i] {
			foldInto(sc.accVec(a), share, sc.folds[a] == 0)
			sc.folds[a]++
		}
		if a/sc.r != i {
			e.mesh.Recycle(share)
		}
	}
}

// foldInto adds share to the running subtotal acc. The first fold of a
// round writes 0 + v over whatever the last round left there: the same
// bits as adding into a zeroed vector (0 + (−0) is +0, which a bare copy
// would get wrong) without the pass that zeroes it.
func foldInto(acc, share []float64, first bool) {
	acc = acc[:len(share)]
	if first {
		for x, v := range share {
			acc[x] = 0 + v
		}
		return
	}
	for x, v := range share {
		acc[x] += v
	}
}

// subtotal returns the subtotal of share index s that peer j reports,
// or nil when it reports none: j crashed, does not hold s, or did not
// fold every final contributor's share of it.
func (e *engine) subtotal(j, s int) []float64 {
	sc := e.sc
	if !sc.computed[j] {
		return nil
	}
	a := sc.slot[j*e.cfg.N+s]
	if a < 0 || sc.folds[a] != len(e.contributors) {
		return nil
	}
	return sc.accVec(a)
}

// validSubtotal reports whether m is a well-formed subtotal message for
// this round: right kind, in-range share index and sender, and a payload
// of the model dimension.
func (e *engine) validSubtotal(m transport.Message) bool {
	return m.Kind == KindSubtotal &&
		m.ShareIdx >= 0 && m.ShareIdx < e.cfg.N &&
		m.From >= 0 && m.From < e.cfg.N &&
		len(m.Payload) == e.dim
}

// finishBroadcast implements Alg. 2 lines 7–9: every peer broadcasts its
// own subtotal; everyone averages. Any missing subtotal aborts.
func (e *engine) finishBroadcast() (*Result, error) {
	n := e.cfg.N
	for i := 0; i < n; i++ {
		if !e.mesh.Alive(i) {
			continue
		}
		sub := e.subtotal(i, i)
		if sub == nil {
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
	// Every peer checks that it holds all N; the average is taken at the
	// first peer's view (identical everywhere).
	var avg []float64
	got := e.sc.have
	for _, j := range alive {
		msgs, err := e.mesh.Drain(j)
		if err != nil {
			return nil, err
		}
		clear(got)
		got[j] = e.subtotal(j, j)
		for _, m := range msgs {
			if e.validSubtotal(m) {
				got[m.ShareIdx] = m.Payload
			} else {
				e.tel.msgsInvalid.Inc()
			}
		}
		held := 0
		for _, sub := range got {
			if sub != nil {
				held++
			}
		}
		if held != n {
			return nil, fmt.Errorf("%w: peer %d holds %d of %d subtotals", ErrAborted, j, held, n)
		}
		if avg == nil {
			avg = e.average(got)
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
	if !e.mesh.Alive(leader) || !e.sc.computed[leader] {
		return nil, ErrLeaderCrashed
	}
	have := e.sc.have
	for _, s := range e.sc.replicas[leader] {
		have[s] = e.subtotal(leader, s)
	}
	// Owners i ≠ leader send ps_wt_i for the K−1 indices the leader lacks
	// (Alg. 4 lines 14–16). In the round-synchronous engine every
	// non-leader owner of a missing index sends it.
	var recovered []int
	for s := 0; s < n; s++ {
		if have[s] != nil {
			continue
		}
		if e.mesh.Alive(s) {
			if sub := e.subtotal(s, s); sub != nil {
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
		for _, h := range holders {
			if h == s || !e.mesh.Alive(h) {
				continue
			}
			sub := e.subtotal(h, s)
			if sub == nil {
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
			break
		}
		if have[s] == nil {
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

// average sums all n subtotals, in ascending share-index order so the
// result is bit-for-bit deterministic, and divides by the number of
// contributing models (Eq. 1–3 generalized to dropouts).
// Avg is always freshly allocated — it is the one vector that escapes
// the round, so it must not alias reusable scratch.
func (e *engine) average(subtotals [][]float64) []float64 {
	avg := make([]float64, e.dim)
	for _, sub := range subtotals {
		for x, v := range sub {
			avg[x] += v
		}
	}
	inv := 1.0 / float64(len(e.contributors))
	for x := range avg {
		avg[x] *= inv
	}
	return avg
}
