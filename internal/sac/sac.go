// Package sac implements Secure Average Computation: the baseline
// n-out-of-n protocol (Alg. 2 of the paper) and the fault-tolerant
// k-out-of-n protocol with replicated shares (Alg. 4).
//
// The protocol lives in Peer: one participant's state and its reaction
// to each message, no IO in it. Schedule, the one driver that steps N of
// them, is the paper's synchronous-round assumption made explicit: the
// round advances through phases (share exchange → subtotal computation
// → subtotal exchange → recovery → average) and peers may crash at phase
// boundaries, which is exactly the failure model of the paper's Fig. 3 —
// a peer that "drops out during aggregation" has sent its shares but
// not its subtotal. Contributors take turns in ascending order and each
// receiver holds a turn's shares until the round ends; a subtotal is
// summed from them the first time somebody needs it — its report, a
// recovery request, the collector's average, which sums an unguarded
// leader's own inside its one pass — so a replica that no owner's crash
// calls for is never summed. Schedule reaches the network
// only through a Fabric: Run is Schedule over a transport.Network, and
// core's two-layer round runs it over its round nodes, which hold the
// peers.
//
// Traffic is charged by the fabric, so every byte is accounted and the
// measured cost can be checked against the paper's closed forms:
//
//	broadcast n-out-of-n (Alg. 2):   2N(N−1)·|w|
//	leader   n-out-of-n (Sec. VII-A): (N²−1)·|w|
//	leader   k-out-of-n (Sec. VII-B): {N(N−1)(N−K+1)+(K−1)}·|w|
package sac

import (
	"errors"
	"fmt"
	"maps"
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
	// kindAccuse is a range-guard accusation broadcast (metadata-sized).
	kindAccuse = "sac/accuse"
	// kindClaims carries the leader's claimed per-index subtotals to an
	// audit verifier (n·|w| floats).
	kindClaims = "sac/claims"
	// kindResult carries the leader's announced result to one peer (|w|).
	kindResult = "sac/result"
	// kindAudit is a verifier's digest echo (metadata-sized).
	kindAudit = "sac/audit"
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
	// errAborted reports that an n-out-of-n aggregation hit a crash and,
	// per Alg. 2's semantics, must be restarted with the remaining peers.
	errAborted = errors.New("sac: aggregation aborted by peer failure")
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
	// Guard arms the robust-aggregation defence (nil: the paper's
	// crash-only protocol; lies go undetected). See Guard. Note that
	// with K = N a range-guard exclusion aborts the round (Alg. 2
	// semantics: a missing partition is unrecoverable).
	Guard *Guard
}

// guarded: the guard is armed, so honest receivers screen shares,
// accusations are taken, every holder reports its copy of a subtotal
// and the leader's result is audited.
func (c *Config) guarded() bool { return c.Guard != nil }

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
	if c.Guard != nil && c.Mode != ModeLeader {
		return fmt.Errorf("sac: the guard requires leader mode")
	}
	if err := c.Guard.Validate(); err != nil {
		return err
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
	// Avg is the secure average over Contributors' models: a vector of
	// its own from Run, the lent one from a Schedule given one.
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
// Run is Schedule over the mesh, on the peers of cfg.Scratch or of a
// spare working set borrowed for the call.
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
	sc := cfg.Scratch
	if sc == nil {
		sc = BorrowScratch(cfg.N, cfg.K, dim)
		defer ReturnScratch(sc)
	}
	peers, err := sc.Peers(cfg, dim)
	if err != nil {
		return nil, err
	}
	// A peer already down on the mesh crashes before its shares. The
	// caller's plan is copied, not written, and only when one is down.
	for j, copied := 0, false; j < cfg.N; j++ {
		if !mesh.Alive(j) {
			if !copied {
				plan := make(CrashPlan, len(crash)+1)
				maps.Copy(plan, crash)
				crash, copied = plan, true
			}
			crash[j] = BeforeShares
		}
	}
	// The fabric lives in the working set, which is on the heap already,
	// so handing it to Schedule allocates nothing.
	f := &sc.fabric
	*f = meshFabric{mesh: mesh, peers: peers}
	res, err := Schedule(f, peers, cfg, models, crash, nil)
	*f = meshFabric{}
	return res, err
}

// Fabric is the network under a schedule, as the schedule sees it: the
// three things it asks of one. Run's is a transport.Network carrying its
// peers' messages (meshFabric); core's is a two-layer round's nodes,
// which hold the peers and route their messages through one inbox each.
type Fabric interface {
	// Crash fails peer j for the rest of the round: it sends nothing
	// more, and what is sent to it is dropped once it is charged.
	Crash(j int) error
	// Flush does what peer j's Ready asks — sends its messages, in
	// order, and takes back the payloads it is done with — and reports
	// how many messages it sent and how many it discarded as invalid.
	Flush(j int) (sent, invalid int, err error)
	// Deliver hands peer j, through its Step, what has reached it.
	Deliver(j int) error
}

// meshFabric is Run's fabric: N peers over a transport.Network.
type meshFabric struct {
	mesh  transport.Network
	peers []Peer
}

func (f *meshFabric) Crash(j int) error { return f.mesh.Crash(j) }

func (f *meshFabric) Flush(j int) (int, int, error) {
	send, done, invalid := f.peers[j].Ready()
	for _, m := range send {
		if err := f.mesh.Send(m); err != nil {
			return 0, 0, err
		}
	}
	for _, payload := range done {
		f.mesh.Recycle(payload)
	}
	return len(send), invalid, nil
}

func (f *meshFabric) Deliver(j int) error {
	msgs, err := f.mesh.Drain(j)
	for _, m := range msgs {
		f.peers[j].Step(m)
	}
	return err
}

// Schedule runs one aggregation of models over peers — a working set's,
// armed for cfg by Scratch.Peers — on the fabric f, and ends the round
// at every peer before it returns. The caller holds the peers and
// carries their messages; the schedule steps them through the phases
// and owns exactly what no single peer can know: the order of the
// turns, the one Rng (handed to the contributor at its turn, so draws
// come in one fixed order), and the crash plan, which it carries out on
// the fabric and tells no peer: the others find a crashed peer silent.
// Which contributors the range guard excludes the peers decide among
// themselves, by accusation. It is the only code that calls those
// inputs into a Peer, for Run and for core's round alike. avg is the
// collector's Finish destination: Run passes nil, so each of its
// Results owns its Avg, and core lends the vectors its System keeps.
func Schedule(f Fabric, peers []Peer, cfg Config, models [][]float64, crash CrashPlan, avg []float64) (*Result, error) {
	d := schedule{f: f, peers: peers, cfg: cfg, rng: cfg.Rng, crash: crash, tel: newSACTel(cfg.Telemetry)}
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(1))
	}
	defer d.release()
	d.tel.roundsStarted.Inc()
	res, err := d.run(models, avg)
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

type schedule struct {
	f     Fabric
	peers []Peer
	cfg   Config
	rng   *rand.Rand
	crash CrashPlan
	phase Phase // the last phase boundary the round has reached
	tel   sacTel

	// err is the first failure of a fabric operation. Any aborts the
	// round, so the helpers that touch the fabric do nothing once it is
	// set.
	err error
}

// release ends the round at every peer: what an aborted round left
// unsent goes nowhere, the payloads the peers still hold go back to the
// fabric, and an idle working set pins no memory it does not own.
func (d *schedule) release() {
	for j := range d.peers {
		p := &d.peers[j]
		p.end()
		p.msgs = p.msgs[:0]
		d.f.Flush(j)
		clear(p.msgs[:cap(p.msgs)])
		clear(p.done[:cap(p.done)])
	}
}

func (d *schedule) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// up reports whether peer j runs past the phase the round has reached.
// One to crash BeforeShares does so at its own turn; until then its
// inbox fills unread (the bytes sent toward it count all the same).
func (d *schedule) up(j int) bool {
	at, doomed := d.crash[j]
	return !doomed || at > d.phase
}

// crashAt carries out the crash plan on peer j if it names this phase.
func (d *schedule) crashAt(j int, phase Phase) {
	if at, doomed := d.crash[j]; doomed && at == phase && d.err == nil {
		d.fail(d.f.Crash(j))
		d.tel.peersCrashed.Inc()
	}
}

// flush has the fabric do what peer j's Ready asks, counting the
// messages sent on sent and the ones discarded as invalid.
func (d *schedule) flush(j int, sent *telemetry.Counter) {
	if d.err != nil {
		return
	}
	n, invalid, err := d.f.Flush(j)
	if d.err = err; err == nil {
		sent.Add(int64(n))
		d.tel.msgsInvalid.Add(int64(invalid))
	}
}

// deliver hands peer j what reached it and does what it asks in return.
func (d *schedule) deliver(j int) {
	if d.err != nil {
		return
	}
	d.fail(d.f.Deliver(j))
	d.flush(j, nil)
}

func (d *schedule) deliverAll() {
	for j := range d.peers {
		if d.up(j) {
			d.deliver(j)
		}
	}
}

func (d *schedule) run(models [][]float64, avg []float64) (*Result, error) {
	n, k := d.cfg.N, d.cfg.K
	t0 := d.tel.reg.Now()

	// Phases 1–2 — share exchange (Alg. 2 lines 2–6 / Alg. 4 lines 2–13);
	// each subtotal is computed when phase 3 first needs it.
	kept, excluded := d.exchangeShares(models)
	switch {
	case d.err != nil:
		return nil, d.err
	case kept+excluded == 0:
		return nil, ErrInsufficientPeers
	case kept == 0:
		return nil, fmt.Errorf("%w: every contributor was excluded by the range guard", ErrInsufficientPeers)
	}
	t1 := d.tel.reg.Now()
	d.tel.phaseShare.Observe(float64(t1 - t0))

	// Alg. 2 semantics: with K = N any pre-share crash leaves the other
	// peers missing a partition, so the aggregation aborts.
	if k == n && kept < n {
		return nil, fmt.Errorf("%w: %d of %d peers sent shares", errAborted, kept, n)
	}

	// A peer that crashes AfterShares has distributed its shares (so its
	// model still counts) but reports nothing further.
	d.phase = AfterShares
	for j := range d.peers {
		d.crashAt(j, AfterShares)
	}

	// Phase 3 — subtotal exchange.
	t2 := d.tel.reg.Now()
	d.tel.phaseSubtotal.Observe(float64(t2 - t1))
	res, err := d.exchangeSubtotals(avg)
	d.tel.phaseFinish.Observe(float64(d.tel.reg.Now() - t2))
	return res, err
}

// exchangeShares runs the share exchange one contributor at a time, in
// ascending order: every receiver opens the turn, contributor i divides
// its model into its own share block and sends, and every receiver
// screens and holds what arrived. Turn i completes before turn i+1
// starts and a subtotal sums its held shares in the order the turns
// were opened, so each subtotal sums its contributors in ascending order
// whatever the fabric does — the summation order the results are pinned
// to. Afterwards the peers seal: every accuser drops whom its range
// guard caught and tells every peer that took a turn, accuser-major, and
// the accusations are read at once, before any subtotal is summed, so
// every alive peer drops the same contributors and later phases see
// clean inboxes. It returns how many contributors the peers kept and how
// many they excluded.
func (d *schedule) exchangeShares(models [][]float64) (kept, excluded int) {
	for i := 0; i < len(d.peers) && d.err == nil; i++ {
		if !d.up(i) {
			d.crashAt(i, BeforeShares) // its own turn is when
			continue
		}
		for j := range d.peers {
			if d.up(j) {
				d.peers[j].BeginTurn(i)
			}
		}
		d.fail(d.peers[i].Contribute(models[i], d.rng))
		d.flush(i, d.tel.sharesSent)
		for j := range d.peers {
			if d.up(j) {
				d.deliver(j)
			}
		}
	}
	for j := range d.peers {
		if d.up(j) {
			d.peers[j].Seal()
			d.flush(j, nil)
		}
	}
	d.deliverAll()
	for j := range d.peers {
		if p := &d.peers[j]; d.up(j) {
			d.tel.byzShareRange.Add(int64(len(p.accusations)))
			kept, excluded = len(p.contributors), len(p.excluded)
		}
	}
	d.tel.byzExcluded.Add(int64(excluded))
	return kept, excluded
}

// exchangeSubtotals is phase 3, one share index at a time in ascending
// order. Under Alg. 2 (lines 7–9) every peer sends its own subtotal to
// every other, each checks that it holds all N, and the average is taken
// at the first peer's view (identical everywhere); any missing subtotal
// aborts. Under Alg. 4 (lines 14–20) the owner sends the leader the
// subtotal it lacks, the leader's timeout (Recover) asks holders for a
// crashed owner's — or, under the guard, every alive holder sends its
// copy — and the leader averages what it was sent and holds. A guarded
// leader's result is audited before release: it announces,
// every peer reads its copy and echoes a digest, every peer reads the
// echoes (leaving every inbox clean), and one conviction is the round's.
// The first collector's Finish writes the average into avg.
func (d *schedule) exchangeSubtotals(avg []float64) (*Result, error) {
	n, leader, broadcast := d.cfg.N, d.cfg.Leader, d.cfg.Mode == ModeBroadcast
	guarded, collectors := d.cfg.guarded(), []int{leader}
	switch {
	case broadcast:
		collectors = nil
		for j := range d.peers {
			if d.up(j) {
				collectors = append(collectors, j)
			}
		}
	case !d.up(leader):
		return nil, ErrLeaderCrashed
	}
	for s := 0; s < n && d.err == nil; s++ {
		holders, err := secretshare.HoldersOf(s, n, d.cfg.K)
		if err != nil {
			return nil, err
		}
		switch {
		case !broadcast && !slices.ContainsFunc(holders, d.up):
			return nil, fmt.Errorf("%w: no alive holder of subtotal %d", ErrInsufficientPeers, s)
		case guarded || broadcast: // every holder reports
		case slices.Contains(holders, leader): // the leader sums s itself
			holders = nil
		case d.up(s):
			holders = holders[len(holders)-1:] // the owner alone
		default:
			// The owner is silent: the leader asks replica holders (lines
			// 17–18), request (metadata-sized) and response (|w|), until one answers.
			holders = nil
			for asked := d.peers[leader].Recover(s); asked >= 0 && d.err == nil; asked = d.peers[leader].Recover(s) {
				d.flush(leader, nil)
				if d.up(asked) {
					d.deliver(asked)
				}
				d.deliver(leader)
			}
		}
		for _, h := range holders {
			if d.up(h) {
				d.peers[h].Report(s)
				d.flush(h, d.tel.subtotalsSent)
			}
		}
	}
	if broadcast && len(collectors) < n {
		return nil, fmt.Errorf("%w: %d of %d peers alive at subtotal exchange", errAborted, len(collectors), n)
	}
	for _, j := range collectors {
		d.deliver(j)
		d.fail(d.peers[j].Missing())
	}
	if d.err != nil {
		return nil, d.err
	}
	res, err := d.peers[collectors[0]].Finish(avg)
	if err != nil || !guarded {
		return res, err
	}
	d.flush(leader, nil)
	d.deliverAll() // the announcement; each verifier echoes
	d.deliverAll() // the echoes
	for j := range d.peers {
		if d.up(j) && d.peers[j].Convicts() {
			res.LeaderAccused = true
		}
	}
	return res, d.err
}
