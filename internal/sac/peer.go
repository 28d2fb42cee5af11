package sac

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fl"
	"repro/internal/secretshare"
	"repro/internal/transport"
)

// Peer is one participant's side of a SAC round — Alg. 2 and Alg. 4 as
// the paper writes them, per peer — and everything that participant
// knows. It is a state machine in the shape of raft.Node: inputs arrive
// as method calls (Step for a received message, the others for what the
// local application or the round's driver decides), outputs leave through
// Ready, and it performs no IO, reads no clock and starts no goroutine.
// Nothing inside a round times out, so there is no Tick.
//
// A round at p is Begin; per contributor i, ascending, BeginTurn(i),
// Contribute at p = i, Step per share, Caught, EndTurn; then Seal,
// Report or Recover per share index, Step per subtotal, and at a
// collector Missing and Finish; Down whenever the failure detector
// reports a peer (DESIGN §16 has the table). What a single peer cannot
// know — whose turn it is, the randomness it divides with, who is down,
// whether another receiver caught the contributor — comes from the
// driver (see Run). No field of a Peer is read or written by another
// Peer; the peers of a Scratch share one piece of memory, the share
// block, which only the contributor of the turn in progress touches.
type Peer struct {
	cfg        Config
	id, r, dim int
	byz        Behavior // what p itself does wrong this round

	block *shareBlock // where p's model is divided at its turn
	idx   []int       // one receiver's replica set, while p addresses its shares

	// slot[s] is the running subtotal that sums share index s here, −1
	// when p does not hold s. acc is those r subtotals, dim floats each, in
	// secretshare.ReplicaIndices order; folds counts the contributors folded
	// into each this round, and a zero count is what makes the first fold
	// overwrite whatever the last round left.
	slot  []int
	acc   []float64
	folds []int

	// pending holds the turn's screened share per subtotal until the turn
	// ends: hold, then fold all or none.
	pending [][]float64
	turn    int    // the contributor whose turn it is, −1 between turns
	caught  bool   // p's range guard caught this turn's contributor
	sealed  bool   // the share exchange is over
	down    []bool // peers the failure detector has reported

	contributors []int // turns p folded, ascending
	excluded     []int // turns p dropped on some receiver's accusation
	accusations  []int // turns p's own guard caught

	// A collector's state, sized when p first is one: holders is
	// secretshare.HoldersOf of every share index, flat, got[s*r+t] the copy
	// of subtotal s received from holders[s*r+t], and asked[s] the holder p
	// asked to recover s from, −1 for none.
	holders []int
	got     [][]float64
	asked   []int
	cands   [][]float64
	audit   auditState

	msgs    []transport.Message // to send, in order
	done    [][]float64         // received payloads p has finished reading
	invalid int                 // messages discarded since the last Ready
}

// shareBlock is the n·dim vector a contributor's model is divided into
// and the per-share views into it (Divider.DivideInto grows both).
type shareBlock struct {
	flat  []float64
	views [][]float64
}

// Begin arms p as peer id of one round of cfg (validated, as Run does)
// over dim-weight models. The zero Peer is ready for it, and one that
// served another shape re-provisions itself.
func (p *Peer) Begin(id int, cfg Config, dim int) error {
	if p.id != id || p.cfg.N != cfg.N || p.cfg.K != cfg.K || p.dim != dim {
		held, err := secretshare.ReplicaIndices(id, cfg.N, cfg.K)
		if err != nil {
			return err
		}
		// The share block stays: one lent by a Scratch is the Scratch's.
		*p = Peer{id: id, r: len(held), dim: dim, block: p.block, slot: make([]int, cfg.N),
			acc: make([]float64, len(held)*dim), folds: make([]int, len(held)),
			pending: make([][]float64, len(held)), down: make([]bool, cfg.N)}
		for s := range p.slot {
			p.slot[s] = slices.Index(held, s)
		}
	}
	if p.block == nil {
		p.block = new(shareBlock)
	}
	p.end()
	p.cfg, p.byz = cfg, cfg.Adversary[id]
	for s := 0; s < cfg.N && p.collects() && len(p.holders) < cfg.N*p.r; s++ {
		h, err := secretshare.HoldersOf(s, cfg.N, cfg.K)
		if err != nil {
			return err
		}
		p.holders = append(p.holders, h...)
	}
	if p.collects() && p.got == nil {
		p.got, p.asked = make([][]float64, cfg.N*p.r), make([]int, cfg.N)
	}
	for s := range p.asked {
		p.asked[s] = -1
	}
	clear(p.folds)
	clear(p.down)
	p.turn, p.caught, p.sealed, p.audit = -1, false, false, auditState{}
	p.contributors, p.excluded, p.accusations = p.contributors[:0], p.excluded[:0], p.accusations[:0]
	p.msgs, p.done, p.invalid = p.msgs[:0], p.done[:0], 0
	return nil
}

// end drops every reference p holds into memory it does not own,
// handing the received payloads among them to done. The shares a
// contributor retained point into its own block and stay out of it.
func (p *Peer) end() {
	if p.turn != p.id {
		p.release(p.pending...)
	}
	clear(p.pending)
	p.release(p.got...)
	clear(p.got)
	clear(p.cands[:cap(p.cands)])
	p.release(p.audit.claims, p.audit.result)
	p.audit.claims, p.audit.result = nil, nil
}

func (p *Peer) release(payloads ...[]float64) {
	for _, v := range payloads {
		if v != nil {
			p.done = append(p.done, v)
		}
	}
}

// Ready returns what p wants done since the last call: the messages to
// send, in order; the received payloads it is done reading, for whoever
// drained them to recycle; and how many messages it discarded as invalid.
// The slices are p's, valid until its next call.
func (p *Peer) Ready() (send []transport.Message, done [][]float64, invalid int) {
	send, done, invalid = p.msgs, p.done, p.invalid
	p.msgs, p.done, p.invalid = p.msgs[:0], p.done[:0], 0
	return send, done, invalid
}

func (p *Peer) send(to int, kind string, shareIdx int, payload []float64) {
	p.msgs = append(p.msgs, transport.Message{From: p.id, To: to, Kind: kind, ShareIdx: shareIdx, Payload: payload})
}

// sendAll is send to every other peer not known down.
func (p *Peer) sendAll(kind string, shareIdx int, payload []float64) {
	for j, down := range p.down {
		if j != p.id && !down {
			p.send(j, kind, shareIdx, payload)
		}
	}
}

// Down tells p the failure detector has reported peer j: p stops
// addressing it. The round's detector is perfect and p trusts it.
func (p *Peer) Down(j int) { p.down[j] = true }

func (p *Peer) isIndex(s int) bool { return s >= 0 && s < len(p.down) }

// BeginTurn opens contributor i's turn: until EndTurn, p accepts shares
// from i and from nobody else.
func (p *Peer) BeginTurn(i int) { p.turn = i }

// Contribute is p's own turn: its model is divided into n shares with
// rng — after whatever poisoning p's behavior applies, so consistently
// across receivers — the shares p holds itself stay here, and every other
// peer is sent the ones it holds, down or not (a sender cannot know, and
// the bytes hit the wire all the same).
func (p *Peer) Contribute(model []float64, rng *rand.Rand) error {
	n, div := p.cfg.N, p.cfg.Divider
	if div == nil {
		div = secretshare.ScalarDivider{}
	}
	if p.turn != p.id || len(model) != p.dim {
		return fmt.Errorf("sac: peer %d asked to contribute %d weights in turn %d", p.id, len(model), p.turn)
	}
	shares, flat, err := div.DivideInto(attackModel(p.byz, model), n, rng, p.block.flat, p.block.views)
	if err != nil {
		return err
	}
	p.block.flat, p.block.views = flat, shares
	for j := 0; j < n; j++ {
		if p.idx, err = secretshare.AppendReplicaIndices(p.idx[:0], j, n, p.cfg.K); err != nil {
			return err
		}
		for t, s := range p.idx {
			switch {
			case j == p.id:
				p.pending[t] = shares[s] // local retention — no traffic
			case p.byz == ByzCorruptShares:
				// Each receiver gets its own perturbed copy; the true share
				// stays only with the sender.
				p.send(j, KindShare, s, corruptedCopy(shares[s], rng))
			default:
				p.send(j, KindShare, s, shares[s])
			}
		}
	}
	return nil
}

// Step hands p one message it received. p accepts, always in the
// dimension the kind calls for:
//
//   - a share, in contributor i's turn, only from i, for an index p
//     holds, at a peer other than i; the last duplicate wins;
//   - an accusation once sealed;
//   - a subtotal for index s, once sealed and only at a collector, from
//     s's owner when p does not sum s itself — under the cross-check from
//     any member of secretshare.HoldersOf(s) — and a recovered one only
//     from the holder p asked, for the index it asked; the first copy wins;
//   - a recovery request only from the leader, for a subtotal p has;
//   - the audit's claims and result only from the leader, once, and its
//     digests only from the other verifiers.
//
// Everything else — another kind, a stale message replayed from an
// earlier round, a message for somebody else — is counted invalid and its
// payload released: a malformed message must never panic p or count a
// model twice.
func (p *Peer) Step(m transport.Message) {
	ok := false
	switch addressed := m.To == p.id && p.isIndex(m.From) && m.From != p.id; {
	case !addressed:
	case m.Kind == KindShare:
		ok = p.stepShare(m)
	case m.Kind == KindAccuse:
		// The turn barrier has already told p whom to drop (see EndTurn);
		// the message is the accusation's cost on the wire.
		if ok = p.sealed && p.isIndex(m.ShareIdx) && len(m.Payload) == 1; ok {
			p.release(m.Payload)
		}
	case m.Kind == KindSubtotal || m.Kind == KindRecovery:
		ok = p.stepSubtotal(m)
	case m.Kind == KindRecoveryReq:
		sub := p.subtotal(m.ShareIdx)
		if ok = p.cfg.Mode == ModeLeader && m.From == p.cfg.Leader && len(m.Payload) == 1 && sub != nil; ok {
			p.send(m.From, KindRecovery, m.ShareIdx, sub)
			p.release(m.Payload)
		}
	case m.Kind == KindClaims || m.Kind == KindResult || m.Kind == KindAudit:
		ok = p.stepAudit(m)
	}
	if !ok {
		p.invalid++
		p.release(m.Payload)
	}
}

// stepShare screens one share of the turn and holds it in pending;
// nothing is added to a subtotal until EndTurn.
func (p *Peer) stepShare(m transport.Message) bool {
	if m.From != p.turn || !p.isIndex(m.ShareIdx) || p.slot[m.ShareIdx] < 0 || len(m.Payload) != p.dim {
		return false
	}
	// Range guard: an honest share is a fraction of its model, so a
	// too-large share is provably forged; none of the contributor's shares
	// will be folded.
	p.caught = p.caught || p.outOfRange(m.Payload)
	a := p.slot[m.ShareIdx]
	p.release(p.pending[a])
	p.pending[a] = m.Payload
	return true
}

// Caught is p's verdict on the turn's contributor.
func (p *Peer) Caught() bool { return p.caught }

// EndTurn closes the turn. With fold, every held share — what p
// accepted and, at the contributor, what it retained — is added to its
// running subtotal; without, none is, at any receiver, so no subtraction
// is ever needed. fold is false when any receiver's Caught is true: the
// driver tells p so at the turn barrier, where the protocol proper would
// have the accusations travel inside the turn. Received payloads are
// released at once; the contributor's own never went through the mesh.
func (p *Peer) EndTurn(fold bool) {
	fold = fold && !p.caught
	for a, share := range p.pending {
		if share == nil {
			continue
		}
		p.pending[a] = nil
		if fold {
			foldInto(p.acc[a*p.dim:(a+1)*p.dim], share, p.folds[a] == 0)
			p.folds[a]++
		}
		if p.turn != p.id {
			p.release(share)
		}
	}
	if fold {
		p.contributors = append(p.contributors, p.turn)
	} else {
		p.excluded = append(p.excluded, p.turn)
	}
	if p.caught {
		p.accusations = append(p.accusations, p.turn)
	}
	p.turn, p.caught = -1, false
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

// Seal ends the share exchange at p. It publishes its range guard's
// detections, once: a metadata-sized message per accused contributor, in
// ascending order, to every peer not known down. Its subtotals are final
// and a collector starts accepting subtotals. A subtotal liar corrupts
// them in place, after honest computation, every index it reports — its
// own and the replicas it backs — so the lie reaches both the trusting
// (plain) and the cross-checking (guarded) collection paths.
func (p *Peer) Seal() {
	for _, accused := range p.accusations {
		p.sendAll(KindAccuse, accused, []float64{float64(accused)})
	}
	p.sealed = true
	if p.byz != ByzInflateSubtotal && p.byz != ByzZeroSubtotal {
		return
	}
	for s := range p.slot {
		sub := p.subtotal(s) // nil where p holds none
		for x := range sub {
			if p.byz == ByzInflateSubtotal {
				sub[x] += InflateOffset
			} else {
				sub[x] = 0
			}
		}
	}
}

// collects: subtotals are sent to everybody under Alg. 2, else the leader.
func (p *Peer) collects() bool { return p.cfg.Mode == ModeBroadcast || p.id == p.cfg.Leader }

// subtotal returns p's subtotal of share index s, or nil when it has
// none to report: p is not sealed, does not hold s, or did not fold
// every contributor's share of it.
func (p *Peer) subtotal(s int) []float64 {
	if !p.sealed || !p.isIndex(s) || p.slot[s] < 0 || len(p.contributors) == 0 ||
		p.folds[p.slot[s]] != len(p.contributors) {
		return nil
	}
	a := p.slot[s]
	return p.acc[a*p.dim : (a+1)*p.dim : (a+1)*p.dim]
}

// Report sends p's subtotal of share index s to whoever collects it:
// every peer not known down under Alg. 2 (lines 7–9), the leader
// otherwise (Alg. 4 lines 14–16; the leader's own stay where they are).
func (p *Peer) Report(s int) {
	switch sub := p.subtotal(s); {
	case sub == nil:
	case p.cfg.Mode == ModeBroadcast:
		p.sendAll(KindSubtotal, s, sub)
	case p.id != p.cfg.Leader:
		p.send(p.cfg.Leader, KindSubtotal, s, sub)
	}
}

// copies returns a collector's slots for the copies of subtotal s, one
// per holder, and those holders; nil at anybody else.
func (p *Peer) copies(s int) (got [][]float64, holders []int) {
	if !p.sealed || !p.collects() || !p.isIndex(s) {
		return nil, nil
	}
	return p.got[s*p.r : (s+1)*p.r], p.holders[s*p.r : (s+1)*p.r]
}

// Recover asks the first replica holder of share index s not known down
// for its copy, the owner being down (Alg. 4 lines 17–18): a metadata-sized
// request the holder answers with the subtotal. It returns whom it asked,
// −1 when there is nobody.
func (p *Peer) Recover(s int) int {
	_, holders := p.copies(s)
	for _, h := range holders {
		if h != s && h != p.id && !p.down[h] {
			p.asked[s] = h
			p.send(h, KindRecoveryReq, s, []float64{float64(s)})
			return h
		}
	}
	return -1
}

// stepSubtotal stores a subtotal copy; see Step for who may supply one.
func (p *Peer) stepSubtotal(m transport.Message) bool {
	s := m.ShareIdx
	got, holders := p.copies(s)
	t := slices.Index(holders, m.From)
	switch {
	case t < 0 || got[t] != nil || len(m.Payload) != p.dim:
		return false
	case m.Kind == KindRecovery:
		if p.asked[s] != m.From {
			return false
		}
	case !p.cfg.crossChecks() && (m.From != s || p.slot[s] >= 0):
		return false
	}
	got[t] = m.Payload
	return true
}

// candidates lists the copies of subtotal s a collector averages from
// and whether the owner's is among them: every copy p has, its own
// included, under the cross-check; else its own, or the one it was sent.
func (p *Peer) candidates(s int) (cands [][]float64, owner bool) {
	got, holders := p.copies(s)
	cands = p.cands[:0]
	if own := p.subtotal(s); own != nil {
		cands, owner = append(cands, own), p.id == s
	}
	for t, c := range got {
		if c != nil && (p.cfg.crossChecks() || len(cands) == 0) {
			cands, owner = append(cands, c), owner || holders[t] == s
		}
	}
	p.cands = cands[:0]
	return cands, owner
}

// Missing reports, as an error, the first subtotal a collector has no
// copy of; Finish needs all N.
func (p *Peer) Missing() error {
	for s := 0; s < p.cfg.N; s++ {
		if cands, _ := p.candidates(s); len(cands) == 0 {
			return fmt.Errorf("%w: peer %d has no copy of subtotal %d", ErrAborted, p.id, s)
		}
	}
	return nil
}

// Finish is the round's Result at a collector: the N subtotals summed in
// ascending share-index order, so the result is bit-for-bit
// deterministic, and divided by the number of contributing models
// (Eq. 1–3 generalized to dropouts). A subtotal whose copy is not the
// owner's — nor p's own, unguarded — is recovered. Under the cross-check
// each subtotal is the coordinate-wise median of its copies (an honest
// majority of holders per index makes that exactly the honest value),
// every copy further than guardTolerance from it is a mismatch, and the
// leader then announces the result for the audit (see auditState).
// Without one an equivocating leader's lie goes unnoticed: it reports an
// offset result and nobody can tell.
func (p *Peer) Finish() (*Result, error) {
	if err := p.Missing(); err != nil {
		return nil, err
	}
	n, guarded := p.cfg.N, p.cfg.crossChecks()
	// Avg is the one vector that escapes the round, so never a reused one.
	res := &Result{Avg: make([]float64, p.dim), Contributors: slices.Clone(p.contributors),
		Excluded: append([]int(nil), p.excluded...)}
	if guarded {
		p.audit.claimed = make([]float64, 0, n*p.dim)
	}
	for s := 0; s < n; s++ {
		cands, owner := p.candidates(s)
		sub := cands[0]
		if guarded {
			var err error
			if sub, err = (fl.CoordinateMedian{}).Aggregate(cands, nil); err != nil {
				return nil, err
			}
			for _, c := range cands {
				if linfDiff(c, sub) > guardTolerance {
					res.Mismatches++
				}
			}
			p.audit.claimed = append(p.audit.claimed, sub...)
		}
		if !owner && (guarded || p.slot[s] < 0) {
			res.Recovered = append(res.Recovered, s)
		}
		for x, v := range sub {
			res.Avg[x] += v
		}
	}
	inv := 1.0 / float64(len(p.contributors))
	for x := range res.Avg {
		res.Avg[x] *= inv
	}
	switch {
	case guarded:
		p.announce(res.Avg)
	case p.cfg.Mode == ModeLeader && p.byz == ByzEquivocate:
		for x := range res.Avg {
			res.Avg[x] += EquivocateOffset
		}
	}
	return res, nil
}
