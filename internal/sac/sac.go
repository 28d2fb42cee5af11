// Package sac implements Secure Average Computation: the baseline
// n-out-of-n protocol (Alg. 2 of the paper) and the fault-tolerant
// k-out-of-n protocol with replicated shares (Alg. 4).
//
// The protocol lives in Peer: one participant's state and its reaction
// to each message, no IO in it. Run, the driver that steps N of them over
// a transport.Network, is the paper's synchronous-round assumption made
// explicit: the round advances through phases (share exchange → subtotal
// computation → subtotal exchange → recovery → average) and peers may
// crash at phase boundaries, which is exactly the failure model of the
// paper's Fig. 3 — a peer that "drops out during aggregation" has sent
// its shares but not its subtotal. The first two phases are fused:
// contributors take turns in ascending order, and each receiver adds a
// turn's shares to its running subtotals as they arrive, so a peer holds
// its n−k+1 subtotals and never the shares.
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
	"slices"

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

// Errors returned by Run.
var (
	// ErrAborted reports that an n-out-of-n aggregation hit a crash and,
	// per Alg. 2's semantics, must be restarted with the remaining peers.
	ErrAborted = errors.New("sac: aggregation aborted by peer failure")
	// ErrInsufficientPeers reports that more than N−K peers failed, so the
	// secret average is unrecoverable.
	ErrInsufficientPeers = errors.New("sac: fewer than K peers alive")
	// ErrLeaderCrashed reports a crash of the designated leader, which is
	// handled by Raft re-election above this package.
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
	// Scratch is the working set the round runs on (see Scratch): nil
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

func (c *Config) crossChecks() bool { return c.Guard != nil && c.Guard.CrossCheck }

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
	if c.crossChecks() && c.Mode != ModeLeader {
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
	// leader of equivocation; callers must discard Avg (Run returns the
	// honest combination, but a real deployment would re-run under a new
	// leader).
	LeaderAccused bool
}

// sacTel holds the driver's pre-resolved metric handles (all nil, hence
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

// Run executes one SAC aggregation of models (models[i] is peer i's flat
// weight vector; all equal length) over the mesh, applying the crash plan.
// Peers already crashed on the mesh are treated as BeforeShares failures.
//
// Run drives N Peers and owns exactly what no single peer can know: the
// order of the turns, the one Rng (handed to the contributor at its
// turn, so draws come in one fixed order), the crash plan, who is alive
// (mesh.Alive, the round's perfect failure detector, told to the peers
// through Peer.Down), and the barrier ending a turn, where the receivers'
// verdicts on the contributor are OR-ed so that all fold its shares or
// none does. Only the driver touches the mesh.
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
	d := &driver{mesh: mesh, cfg: cfg, rng: cfg.Rng, crash: crash, tel: newSACTel(cfg.Telemetry), sc: cfg.Scratch}
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(1))
	}
	if d.sc == nil {
		d.sc = borrowScratch(cfg.N, cfg.K, dim)
	}
	defer d.release()
	if err := d.sc.begin(cfg, dim); err != nil {
		return nil, err
	}
	d.peers = d.sc.peers
	for j := range d.peers {
		if !mesh.Alive(j) {
			d.down(j)
		}
	}
	d.tel.roundsStarted.Inc()
	res, err := d.run(models)
	if err != nil {
		d.tel.roundsFailed.Inc()
		return nil, err
	}
	d.tel.roundsOK.Inc()
	d.tel.subtotalsRecovered.Add(int64(len(res.Recovered)))
	d.tel.byzMismatch.Add(int64(res.Mismatches))
	if res.LeaderAccused {
		d.tel.byzEquivocation.Inc()
	}
	d.tel.reg.Trace("sac/round", uint64(cfg.Leader), -1,
		telemetry.F("n", int64(cfg.N)),
		telemetry.F("k", int64(cfg.K)),
		telemetry.F("contributors", int64(len(res.Contributors))),
		telemetry.F("recovered", int64(len(res.Recovered))))
	return res, nil
}

type driver struct {
	mesh  transport.Network
	cfg   Config
	rng   *rand.Rand
	crash CrashPlan
	tel   sacTel
	sc    *Scratch // cfg.Scratch, or a spare one borrowed for the call
	peers []Peer   // sc's

	contributed, excluded int // turns run, and turns the barrier dropped
	// err is the first failure of a mesh operation. Any aborts the round,
	// so the helpers that touch the mesh do nothing once it is set.
	err error
}

// release ends the round at every peer — the payloads they still hold go
// back to the mesh, and an idle working set pins no memory it does not
// own — and a borrowed working set goes back to the spare list.
func (d *driver) release() {
	for j := range d.sc.peers {
		d.sc.peers[j].end()
		send, done, _ := d.sc.peers[j].Ready()
		for _, payload := range done {
			d.mesh.Recycle(payload)
		}
		clear(send[:cap(send)])
		clear(done[:cap(done)])
	}
	if d.cfg.Scratch == nil {
		returnScratch(d.sc)
	}
}

func (d *driver) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// down is the failure detector reporting j to every peer.
func (d *driver) down(j int) {
	for l := range d.peers {
		d.peers[l].Down(j)
	}
}

// crashAt carries out the crash plan on peer j if it names this phase.
func (d *driver) crashAt(j int, phase Phase) {
	if at, doomed := d.crash[j]; doomed && at == phase && d.mesh.Alive(j) && d.err == nil {
		d.fail(d.mesh.Crash(j))
		d.tel.peersCrashed.Inc()
		d.down(j)
	}
}

// flush does what peer j's Ready asks: sends its messages in order
// (counted on sent), recycles the payloads it is done with, counts what
// it discarded.
func (d *driver) flush(j int, sent *telemetry.Counter) {
	if d.err != nil {
		return
	}
	send, done, invalid := d.peers[j].Ready()
	for _, m := range send {
		if d.err = d.mesh.Send(m); d.err != nil {
			return
		}
	}
	for _, payload := range done {
		d.mesh.Recycle(payload)
	}
	sent.Add(int64(len(send)))
	d.tel.msgsInvalid.Add(int64(invalid))
}

// deliver drains peer j's inbox into its Step and does what it asks in
// return.
func (d *driver) deliver(j int) {
	if d.err != nil {
		return
	}
	msgs, err := d.mesh.Drain(j)
	d.fail(err)
	for _, m := range msgs {
		d.peers[j].Step(m)
	}
	d.flush(j, nil)
}

func (d *driver) deliverAll() {
	for j := range d.peers {
		if d.mesh.Alive(j) {
			d.deliver(j)
		}
	}
}

// sharing reports whether peer j takes part in the share exchange. Who
// does is settled before the first turn: a peer that is to crash
// BeforeShares does so at its own turn, and until then its inbox fills
// unread (the bytes sent toward it count all the same).
func (d *driver) sharing(j int) bool {
	at, doomed := d.crash[j]
	return d.mesh.Alive(j) && !(doomed && at == BeforeShares)
}

func (d *driver) run(models [][]float64) (*Result, error) {
	n, k := d.cfg.N, d.cfg.K
	t0 := d.tel.reg.Now()

	// Phases 1–2 — share exchange and subtotal computation, fused (Alg. 2
	// lines 2–6 / Alg. 4 lines 2–13).
	d.exchangeShares(models)
	kept := d.contributed - d.excluded
	switch {
	case d.err != nil:
		return nil, d.err
	case d.contributed == 0:
		return nil, ErrInsufficientPeers
	case kept == 0:
		return nil, fmt.Errorf("%w: every contributor was excluded by the range guard", ErrInsufficientPeers)
	}
	t1 := d.tel.reg.Now()
	d.tel.phaseShare.Observe(float64(t1 - t0))

	// Alg. 2 semantics: with K = N any pre-share crash leaves the other
	// peers missing a partition, so the aggregation aborts.
	if k == n && kept < n {
		return nil, fmt.Errorf("%w: %d of %d peers sent shares", ErrAborted, kept, n)
	}

	// A peer that crashes AfterShares has distributed its shares (so its
	// model still counts) but reports nothing further.
	for j := range d.peers {
		d.crashAt(j, AfterShares)
	}

	// Phase 3 — subtotal exchange.
	t2 := d.tel.reg.Now()
	d.tel.phaseSubtotal.Observe(float64(t2 - t1))
	res, err := d.exchangeSubtotals()
	d.tel.phaseFinish.Observe(float64(d.tel.reg.Now() - t2))
	return res, err
}

// exchangeShares runs the share exchange one contributor at a time, in
// ascending order: contributor i divides its model into the share block
// and sends, and every receiver screens what arrived and — at the
// barrier, once all have — adds it into its running subtotals before
// contributor i+1 overwrites the block. Turn i completes before turn
// i+1 starts, so each subtotal sums its contributors in ascending order
// whatever the fabric does — the summation order the results are pinned
// to. Afterwards the peers seal: every accuser tells every alive peer
// whom its range guard caught, in accuser-major order, and the copies
// are read at once so later phases see clean inboxes.
func (d *driver) exchangeShares(models [][]float64) {
	for i := 0; i < len(d.peers) && d.err == nil; i++ {
		if !d.sharing(i) {
			d.crashAt(i, BeforeShares) // its own turn is when
			continue
		}
		d.peers[i].BeginTurn(i)
		d.fail(d.peers[i].Contribute(models[i], d.rng))
		d.flush(i, d.tel.sharesSent)
		// The barrier: every receiver has screened before any folds, and
		// one accusation is everybody's. Here the driver sees all verdicts at
		// once; peers that sent accusations inside the turn would not need it.
		fold := true
		for j := range d.peers {
			if d.sharing(j) {
				d.peers[j].BeginTurn(i)
				d.deliver(j)
				if d.peers[j].Caught() {
					fold = false
					d.tel.byzShareRange.Inc()
				}
			}
		}
		for j := range d.peers {
			if d.sharing(j) {
				d.peers[j].EndTurn(fold)
				d.flush(j, nil)
			}
		}
		d.contributed++
		if !fold {
			d.excluded++
			d.tel.byzExcluded.Inc()
		}
	}
	for j := range d.peers {
		if d.mesh.Alive(j) {
			d.peers[j].Seal()
			d.flush(j, nil)
		}
	}
	d.deliverAll()
}

// exchangeSubtotals is phase 3, one share index at a time in ascending
// order. Under Alg. 2 (lines 7–9) every peer sends its own subtotal to
// every other, each checks that it holds all N, and the average is taken
// at the first peer's view (identical everywhere); any missing subtotal
// aborts. Under Alg. 4 (lines 14–20) the owner sends the leader the
// subtotal it lacks and a crashed owner's is recovered from a replica
// holder — or, under the cross-check, every alive holder sends its copy —
// and the leader averages what it was sent with what it holds. A
// cross-checking leader's result is audited before release: it announces,
// every peer reads its copy and echoes a digest, every peer reads the
// echoes (leaving every inbox clean), and one conviction is the round's.
func (d *driver) exchangeSubtotals() (*Result, error) {
	n, leader, broadcast := d.cfg.N, d.cfg.Leader, d.cfg.Mode == ModeBroadcast
	guarded, collectors := d.cfg.crossChecks(), []int{leader}
	switch {
	case broadcast:
		collectors = d.mesh.AlivePeers()
	case !d.mesh.Alive(leader):
		return nil, ErrLeaderCrashed
	}
	for s := 0; s < n && d.err == nil; s++ {
		holders, err := secretshare.HoldersOf(s, n, d.cfg.K)
		if err != nil {
			return nil, err
		}
		switch {
		case !broadcast && !slices.ContainsFunc(holders, d.mesh.Alive):
			return nil, fmt.Errorf("%w: no alive holder of subtotal %d", ErrInsufficientPeers, s)
		case guarded || broadcast: // every holder reports
		case slices.Contains(holders, leader): // the leader sums s itself
			holders = nil
		case d.mesh.Alive(s):
			holders = holders[len(holders)-1:] // the owner alone
		default:
			// Owner is down — recover from a replica holder (lines 17–18):
			// request (metadata-sized) and response (|w|).
			holders = nil
			asked := d.peers[leader].Recover(s)
			d.flush(leader, nil)
			d.deliver(asked)
		}
		for _, h := range holders {
			if d.mesh.Alive(h) {
				d.peers[h].Report(s)
				d.flush(h, d.tel.subtotalsSent)
			}
		}
	}
	if broadcast && len(collectors) < n {
		return nil, fmt.Errorf("%w: %d of %d peers alive at subtotal exchange", ErrAborted, len(collectors), n)
	}
	for _, j := range collectors {
		d.deliver(j)
		d.fail(d.peers[j].Missing())
	}
	if d.err != nil {
		return nil, d.err
	}
	res, err := d.peers[collectors[0]].Finish()
	if err != nil || !guarded {
		return res, err
	}
	d.flush(leader, nil)
	d.deliverAll() // the announcement; each verifier echoes
	d.deliverAll() // the echoes
	for j := range d.peers {
		if d.mesh.Alive(j) && d.peers[j].Convicts() {
			res.LeaderAccused = true
		}
	}
	return res, d.err
}
