package sac

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fl"
	"repro/internal/secretshare"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Peer is one participant's side of a SAC round — Alg. 2 and Alg. 4 as
// the paper writes them, per peer — and everything that participant
// knows. It is a state machine in the shape of raft.Node: inputs arrive
// as method calls (Step for a received message, the others for what the
// local application or the round's driver decides), outputs leave through
// Ready, and it performs no IO, reads no clock and starts no goroutine.
//
// A round at p is Begin; per contributor i, ascending, BeginTurn(i),
// Contribute at p = i, Step per share; then Seal, Step per accusation,
// Report or Recover per share index, Step per subtotal, and at a
// collector Missing and Finish (DESIGN §16 has the table). Nobody tells
// p who crashed: it finds peers silent (see Seal and Recover). What a
// single peer cannot know — whose turn it is, the randomness it divides
// with — comes from the driver (see Schedule); whom another receiver
// caught comes in that receiver's accusation. No field of a Peer is
// read or written by another Peer; on an in-memory fabric a receiver reads the
// shares it holds from their sender's share block, which only that
// sender writes, at its turn.
type Peer struct {
	cfg        Config
	id, r, dim int
	byz        Behavior // what p itself does wrong this round

	block *shareBlock // where p's model is divided at its turn
	idx   []int       // one receiver's replica set, while p addresses its shares

	// slot[s] is where share index s is held here, −1 when p does not
	// hold s. held[i*r+a] is contributor i's share of the index in slot
	// a, kept from i's turn to the end of the round: a received payload,
	// or at p's own turn a view of its block. acc is p's r subtotals,
	// dim floats each, in secretshare.ReplicaIndices order; summed[a] is
	// set once acc's slot a sums this round's contributors, which happens
	// the first time somebody needs it as a vector (see subtotal). terms
	// is the list subtotal hands the sum, kept across rounds. tallying is
	// set once p has summed a subtotal or, as a collector, accepted one or
	// checked that none is missing: from then on it takes no accusation.
	slot     []int
	held     [][]float64
	acc      []float64
	summed   []bool
	terms    [][]float64
	tallying bool

	turn   int    // the contributor whose turn it is, −1 before the first and once sealed
	sealed bool   // the share exchange is over
	silent []bool // peers p found silent: no turn, or no answer it waited for

	contributors []int // turns p keeps, ascending
	excluded     []int // turns p dropped on an accusation, ascending
	accusations  []int // turns p's own guard caught, ascending

	// A collector's state, sized when p first is one: holders is
	// secretshare.HoldersOf of every share index, flat, got[s*r+t] the copy
	// of subtotal s received from holders[s*r+t], and asked[s] the holder p
	// last asked to recover s from, −1 for none. sums and groups are what
	// Finish adds up — per index the subtotal, or the held shares of one
	// p has not summed, and how many terms each index takes — and claimed
	// the n·dim floats a guarded leader's audit claims, the median of
	// each index's copies; all three are kept across rounds.
	holders []int
	got     [][]float64
	asked   []int
	cands   [][]float64
	sums    [][]float64
	groups  []int
	claimed []float64
	audit   auditState
	result  *Result // what Finish returned this round

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
		idx, err := secretshare.ReplicaIndices(id, cfg.N, cfg.K)
		if err != nil {
			return err
		}
		// The share block stays: one lent by a Scratch is the Scratch's.
		r := len(idx)
		*p = Peer{id: id, r: r, dim: dim, block: p.block, slot: make([]int, cfg.N),
			held: make([][]float64, cfg.N*r), acc: make([]float64, r*dim), summed: make([]bool, r),
			silent: make([]bool, cfg.N)}
		for s := range p.slot {
			p.slot[s] = slices.Index(idx, s)
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
		p.got, p.asked, p.groups = make([][]float64, cfg.N*p.r), make([]int, cfg.N), make([]int, 0, cfg.N)
	}
	for s := range p.asked {
		p.asked[s] = -1
	}
	clear(p.summed)
	clear(p.silent)
	p.turn, p.sealed, p.tallying, p.audit, p.result = -1, false, false, auditState{}, nil
	p.contributors, p.excluded, p.accusations = p.contributors[:0], p.excluded[:0], p.accusations[:0]
	p.msgs, p.done, p.invalid = p.msgs[:0], p.done[:0], 0
	return nil
}

// end drops every reference p holds into memory it does not own,
// handing the received payloads among them to done. The shares a
// contributor retained point into its own block and stay out of it.
func (p *Peer) end() {
	for i := 0; i*p.r < len(p.held); i++ {
		if i != p.id {
			p.release(p.held[i*p.r : (i+1)*p.r]...)
		}
	}
	clear(p.held)
	p.release(p.got...)
	clear(p.got)
	clear(p.terms[:cap(p.terms)])
	clear(p.cands[:cap(p.cands)])
	clear(p.sums[:cap(p.sums)])
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

// sendAll is send to every other peer not found silent.
func (p *Peer) sendAll(kind string, shareIdx int, payload []float64) {
	for j, silent := range p.silent {
		if j != p.id && !silent {
			p.send(j, kind, shareIdx, payload)
		}
	}
}

func (p *Peer) isIndex(s int) bool { return s >= 0 && s < len(p.silent) }

// BeginTurn opens contributor i's turn: until the next turn or the
// seal, p accepts shares from i and from nobody else, and from now on p
// counts i as a contributor.
func (p *Peer) BeginTurn(i int) {
	p.turn = i
	p.contributors = append(p.contributors, i)
}

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
				p.held[p.id*p.r+t] = shares[s] // local retention — no traffic
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
//   - an accusation only in a guarded round, once sealed and before p
//     has accepted or summed a subtotal or checked that none is missing;
//   - a subtotal for index s, once sealed and only at a collector, from
//     s's owner when p does not sum s itself — under the guard from
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
	case m.Kind == kindAccuse:
		// Only a guarded round has accusers, and no subtotal has been
		// accepted, summed or counted on yet, so dropping the accused
		// takes no subtraction.
		if ok = p.cfg.guarded() && p.sealed && !p.tallying && p.isIndex(m.ShareIdx) && len(m.Payload) == 1; ok {
			p.drop(m.ShareIdx)
			p.release(m.Payload)
		}
	case m.Kind == KindSubtotal || m.Kind == KindRecovery:
		ok = p.stepSubtotal(m)
	case m.Kind == KindRecoveryReq:
		var sub []float64 // summed only for a request p may answer
		if p.cfg.Mode == ModeLeader && m.From == p.cfg.Leader && len(m.Payload) == 1 {
			sub = p.subtotal(m.ShareIdx)
		}
		if ok = sub != nil; ok {
			p.send(m.From, KindRecovery, m.ShareIdx, sub)
			p.release(m.Payload)
		}
	case m.Kind == kindClaims || m.Kind == kindResult || m.Kind == kindAudit:
		ok = p.stepAudit(m)
	}
	if !ok {
		p.invalid++
		p.release(m.Payload)
	}
}

// stepShare screens one share of the turn and holds it until the seal.
func (p *Peer) stepShare(m transport.Message) bool {
	if m.From != p.turn || !p.isIndex(m.ShareIdx) || p.slot[m.ShareIdx] < 0 || len(m.Payload) != p.dim {
		return false
	}
	// Range guard: an honest share is a fraction of its model, so a
	// too-large share is provably forged; p will accuse its contributor.
	if p.outOfRange(m.Payload) && !slices.Contains(p.accusations, p.turn) {
		p.accusations = append(p.accusations, p.turn)
	}
	h := &p.held[p.turn*p.r+p.slot[m.ShareIdx]]
	p.release(*h)
	*h = m.Payload
	return true
}

// Seal ends the share exchange at p: its contributors are final but for
// accusations, and a collector starts accepting subtotals. p finds silent
// every peer whose turn never came, drops every contributor its range
// guard caught and accuses each, once: a metadata-sized message per
// accused contributor, in ascending order, to every other peer.
func (p *Peer) Seal() {
	p.turn, p.sealed = -1, true
	for j := range p.silent {
		p.silent[j] = !slices.Contains(p.contributors, j)
	}
	for _, accused := range p.accusations {
		p.drop(accused)
		p.sendAll(kindAccuse, accused, []float64{float64(accused)})
	}
}

// drop removes contributor i from p's round, if it is in it: p releases
// the shares it received from i, and i moves from contributors to
// excluded.
func (p *Peer) drop(i int) {
	at := slices.Index(p.contributors, i)
	if at < 0 {
		return
	}
	p.contributors = slices.Delete(p.contributors, at, at+1)
	turn := p.held[i*p.r : (i+1)*p.r]
	if i != p.id {
		p.release(turn...)
	}
	clear(turn)
	at, _ = slices.BinarySearch(p.excluded, i)
	p.excluded = slices.Insert(p.excluded, at, i)
}

// collects: subtotals are sent to everybody under Alg. 2, else the leader.
func (p *Peer) collects() bool { return p.cfg.Mode == ModeBroadcast || p.id == p.cfg.Leader }

// heldTerms appends to terms the shares p holds of share index s,
// contributors ascending — the terms of its subtotal of s — or returns
// nil when it has no subtotal of s: p is not sealed, does not hold s,
// or does not hold every contributor's share of it.
func (p *Peer) heldTerms(terms [][]float64, s int) [][]float64 {
	if !p.sealed || !p.isIndex(s) || p.slot[s] < 0 || len(p.contributors) == 0 {
		return nil
	}
	a := p.slot[s]
	for _, i := range p.contributors {
		if p.held[i*p.r+a] == nil {
			return nil
		}
		terms = append(terms, p.held[i*p.r+a])
	}
	return terms
}

// subtotal returns p's subtotal of share index s, summed into acc's
// slot for it, or nil when it has none (see heldTerms). The first call
// of a round sums it, so a subtotal nobody asks for is never summed. A
// subtotal liar corrupts the sum right after it, so the lie reaches
// both the trusting (plain) and the cross-checking (guarded) collection
// paths.
func (p *Peer) subtotal(s int) []float64 {
	terms := p.heldTerms(p.terms[:0], s)
	if terms == nil {
		return nil
	}
	p.terms = terms[:0]
	a := p.slot[s]
	sub := p.acc[a*p.dim : (a+1)*p.dim : (a+1)*p.dim]
	if p.summed[a] {
		return sub
	}
	tensor.SumInto(sub, terms)
	switch p.byz {
	case ByzInflateSubtotal:
		for x := range sub {
			sub[x] += inflateOffset
		}
	case ByzZeroSubtotal:
		clear(sub)
	}
	p.summed[a], p.tallying = true, true
	return sub
}

// Report sends p's subtotal of share index s to whoever collects it:
// every peer not found silent under Alg. 2 (lines 7–9), the leader
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

// Recover is a collector's timeout for share index s (Alg. 4 lines
// 17–18): unless it holds a copy of s, p finds silent the peer it waited
// on — the owner, then each holder it asked — and asks the next replica
// holder not found silent, a metadata-sized request the holder answers
// with the subtotal. It returns whom it asked, −1 for nobody.
func (p *Peer) Recover(s int) int {
	got, holders := p.copies(s)
	if holders == nil || slices.ContainsFunc(got, func(c []float64) bool { return c != nil }) {
		return -1
	}
	p.silent[s] = true // the owner sent nothing
	if p.asked[s] >= 0 {
		p.silent[p.asked[s]] = true // nor did the holder p asked last
	}
	for _, h := range holders {
		if h != p.id && !p.silent[h] {
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
	case !p.cfg.guarded() && (m.From != s || p.slot[s] >= 0):
		return false
	}
	got[t], p.tallying = m.Payload, true
	return true
}

// candidates lists the copies of subtotal s a collector averages from
// and whether the owner's is among them: every copy p has, its own
// included, under the guard; else its own, or the one it was sent.
// p's own copy is in the list once summed; until then the list leaves
// it out and own holds its terms instead (see heldTerms; nil once
// summed, or when p has no subtotal of s), so looking for a copy sums
// nothing. Both slices are p's, valid until its next call.
func (p *Peer) candidates(s int) (cands, own [][]float64, owner bool) {
	got, holders := p.copies(s)
	cands = p.cands[:0]
	if own = p.heldTerms(p.terms[:0], s); own != nil {
		p.terms, owner = own[:0], p.id == s
		if a := p.slot[s]; p.summed[a] {
			cands, own = append(cands, p.acc[a*p.dim:(a+1)*p.dim:(a+1)*p.dim]), nil
		}
	}
	for t, c := range got {
		if c != nil && (p.cfg.guarded() || len(cands) == 0 && own == nil) {
			cands, owner = append(cands, c), owner || holders[t] == s
		}
	}
	p.cands = cands[:0]
	return cands, own, owner
}

// Missing reports, as an error, the first subtotal a collector has no
// copy of; Finish needs all N. It sums none of p's own, and from its
// call on p takes no accusation.
func (p *Peer) Missing() error {
	p.tallying = true
	for s := 0; s < p.cfg.N; s++ {
		if cands, own, _ := p.candidates(s); len(cands) == 0 && own == nil {
			return fmt.Errorf("%w: peer %d has no copy of subtotal %d", errAborted, p.id, s)
		}
	}
	return nil
}

// Finish is the round's Result at a collector: the N subtotals summed in
// ascending share-index order, so the result is bit-for-bit
// deterministic, and divided by the number of contributing models
// (Eq. 1–3 generalized to dropouts). A subtotal whose copy is not the
// owner's — nor p's own, unguarded — is recovered. A subtotal of p's own
// that nobody has asked for is summed inside the average: its held
// shares go into the one pass over Avg as a group, which adds their sum
// as acc's slot would have held it, so no slot is written and read
// back. Under the guard each subtotal is the coordinate-wise
// median of its copies (an honest majority of holders per index makes
// that exactly the honest value), every copy further than
// guardTolerance from it is a mismatch, and the leader then announces
// the result for the audit (see auditState). Without one an
// equivocating leader's lie goes unnoticed: it reports an offset result
// and nobody can tell.
//
// The average goes into avg[:dim], which Finish makes only when avg has
// no room for it (cap(avg) < dim): a caller that keeps a vector across
// rounds lends it here, and one that passes nil gets a vector of its own.
func (p *Peer) Finish(avg []float64) (*Result, error) {
	if err := p.Missing(); err != nil {
		return nil, err
	}
	n, guarded := p.cfg.N, p.cfg.guarded()
	if guarded || p.byz == ByzInflateSubtotal || p.byz == ByzZeroSubtotal {
		// The median reads p's own copies as vectors, and a liar's own
		// subtotals carry its lie into the average as its reports do.
		for s := 0; s < n; s++ {
			p.subtotal(s)
		}
	}
	// Every float of Avg is written below, so a lent one is not cleared.
	if cap(avg) < p.dim {
		avg = make([]float64, p.dim)
	}
	res := &Result{Avg: avg[:p.dim], Contributors: slices.Clone(p.contributors),
		Excluded: append([]int(nil), p.excluded...)}
	if guarded {
		if cap(p.claimed) < n*p.dim {
			p.claimed = make([]float64, n*p.dim)
		}
		p.audit.claimed = p.claimed[:n*p.dim]
	}
	p.sums, p.groups = p.sums[:0], p.groups[:0]
	for s := 0; s < n; s++ {
		cands, own, owner := p.candidates(s)
		if own != nil {
			p.sums, p.groups = append(p.sums, own...), append(p.groups, len(own))
			continue // p's own, unguarded: never recovered
		}
		sub := cands[0]
		if guarded {
			var err error
			claim := p.audit.claimed[s*p.dim : (s+1)*p.dim]
			if sub, err = (fl.CoordinateMedian{}).AggregateInto(claim, cands, nil); err != nil {
				return nil, err
			}
			for _, c := range cands {
				if linfDiff(c, sub) > guardTolerance {
					res.Mismatches++
				}
			}
		}
		if !owner && (guarded || p.slot[s] < 0) {
			res.Recovered = append(res.Recovered, s)
		}
		p.sums, p.groups = append(p.sums, sub), append(p.groups, 1)
	}
	// One pass over Avg: every subtotal, or group of held shares, ascending
	// s, then the scale.
	tensor.ScaledSumInto(res.Avg, p.sums, p.groups, 1.0/float64(len(p.contributors)))
	switch {
	case guarded:
		p.announce(res.Avg)
	case p.cfg.Mode == ModeLeader && p.byz == ByzEquivocate:
		for x := range res.Avg {
			res.Avg[x] += equivocateOffset
		}
	}
	p.result = res
	return res, nil
}

// Collected is the Result p's Finish returned this round: nil before,
// and at every peer that did not finish it.
func (p *Peer) Collected() *Result { return p.result }
