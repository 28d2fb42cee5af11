package sac

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/fl"
	"repro/internal/secretshare"
	"repro/internal/transport"
)

// The reference engine: the whole round as one function over every
// peer's state, the way the package was written before Peer. Phases 1–2
// are the form before the streaming fold — every contributor divided
// into its own share block, every received share stored in
// received[peer][shareIdx][contributor], the subtotals summed afterwards
// over the final contributors in ascending order — and phase 3 is the
// all-peers engine's, which averages the sender's copy of every subtotal.
// It is the oracle Run is proven bit-identical against
// (TestStreamingFoldMatchesReference). It keeps its own state: nothing
// here reads or writes a Peer, a Scratch or the driver, and what it
// shares with them is stateless (Config.validate, the attack constants,
// attackModel, corruptedCopy, linfDiff, auditDigest).
type refEngine struct {
	mesh  transport.Network
	cfg   Config
	dim   int
	div   secretshare.Divider
	rng   *rand.Rand
	crash CrashPlan

	replicas [][]int
	// subtotals[j][s] is the subtotal of share index s peer j computed, set
	// only when j summed every final contributor's share of it; computed[j]
	// is whether j got as far as reporting subtotals.
	subtotals []map[int][]float64
	computed  []bool

	contributors  []int
	excluded      []int
	mismatches    int
	leaderAccused bool
}

type refAccusation struct{ accuser, accused int }

// refRun is Run on the reference engine. descending reverses the
// summation order — the deliberate mutation the oracle must catch.
func refRun(mesh transport.Network, cfg Config, models [][]float64, crash CrashPlan, descending bool) (*Result, error) {
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
	e := &refEngine{mesh: mesh, cfg: cfg, dim: dim, div: div, rng: rng, crash: crash,
		replicas: make([][]int, cfg.N), subtotals: make([]map[int][]float64, cfg.N), computed: make([]bool, cfg.N)}
	for j := range e.replicas {
		idx, err := secretshare.ReplicaIndices(j, cfg.N, cfg.K)
		if err != nil {
			return nil, err
		}
		e.replicas[j], e.subtotals[j] = idx, make(map[int][]float64)
	}
	return e.run(models, descending)
}

func (e *refEngine) crashAt(peer int, phase Phase) bool {
	p, ok := e.crash[peer]
	return ok && p == phase
}

func (e *refEngine) byz(i int) Behavior { return e.cfg.Adversary[i] }

func (e *refEngine) honest(i int) bool { return e.byz(i) == ByzNone }

func (e *refEngine) validShare(m transport.Message) bool {
	return m.Kind == KindShare &&
		m.ShareIdx >= 0 && m.ShareIdx < e.cfg.N &&
		m.From >= 0 && m.From < e.cfg.N &&
		len(m.Payload) == e.dim
}

func (e *refEngine) shareOutOfRange(j int, m transport.Message) bool {
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

func refStore(received []map[int]map[int][]float64, peer, shareIdx, contributor int, share []float64) {
	byContrib, ok := received[peer][shareIdx]
	if !ok {
		byContrib = make(map[int][]float64)
		received[peer][shareIdx] = byContrib
	}
	byContrib[contributor] = share
}

func (e *refEngine) run(models [][]float64, descending bool) (*Result, error) {
	n, k := e.cfg.N, e.cfg.K

	// Phase 1 — share exchange: everybody sends, then everybody drains.
	received := make([]map[int]map[int][]float64, n)
	for j := range received {
		received[j] = make(map[int]map[int][]float64)
	}
	for i := 0; i < n; i++ {
		if !e.mesh.Alive(i) {
			continue
		}
		if e.crashAt(i, BeforeShares) {
			if err := e.mesh.Crash(i); err != nil {
				return nil, err
			}
			continue
		}
		shares, err := e.div.Divide(attackModel(e.byz(i), models[i]), n, e.rng)
		if err != nil {
			return nil, err
		}
		e.contributors = append(e.contributors, i)
		for j := 0; j < n; j++ {
			for _, s := range e.replicas[j] {
				if j == i {
					refStore(received, j, s, i, shares[s])
					continue
				}
				payload := shares[s]
				if e.byz(i) == ByzCorruptShares {
					payload = corruptedCopy(payload, e.rng)
				}
				msg := transport.Message{From: i, To: j, Kind: KindShare, ShareIdx: s, Payload: payload}
				if err := e.mesh.Send(msg); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(e.contributors) == 0 {
		return nil, ErrInsufficientPeers
	}
	var accusations []refAccusation
	accusedPair := make(map[[2]int]bool)
	var drained [][]transport.Message
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
			case e.shareOutOfRange(j, m):
				if pair := [2]int{j, m.From}; !accusedPair[pair] {
					accusedPair[pair] = true
					accusations = append(accusations, refAccusation{accuser: j, accused: m.From})
				}
			default:
				refStore(received, j, m.ShareIdx, m.From, m.Payload)
			}
		}
	}
	if err := e.broadcastAccusations(accusations); err != nil {
		return nil, err
	}
	if len(e.contributors) == 0 {
		return nil, fmt.Errorf("%w: every contributor was excluded by the range guard", ErrInsufficientPeers)
	}
	if k == n && len(e.contributors) < n {
		return nil, fmt.Errorf("%w: %d of %d peers sent shares", ErrAborted, len(e.contributors), n)
	}

	// Phase 2 — subtotal computation, after the fact.
	order := append([]int(nil), e.contributors...)
	if descending {
		sort.Sort(sort.Reverse(sort.IntSlice(order)))
	}
	for j := 0; j < n; j++ {
		if !e.mesh.Alive(j) {
			continue
		}
		if e.crashAt(j, AfterShares) {
			if err := e.mesh.Crash(j); err != nil {
				return nil, err
			}
			continue
		}
		e.computed[j] = true
		for s, byContrib := range received[j] {
			sub := make([]float64, e.dim)
			complete := true
			for _, c := range order {
				sh, ok := byContrib[c]
				if !ok {
					complete = false
					break
				}
				for x, v := range sh {
					sub[x] += v
				}
			}
			if complete && slices.Contains(e.replicas[j], s) {
				e.subtotals[j][s] = sub
			}
		}
		e.corruptSubtotals(j)
	}
	for _, msgs := range drained {
		e.recycle(msgs)
	}
	return e.finish()
}

func (e *refEngine) broadcastAccusations(accusations []refAccusation) error {
	if len(accusations) == 0 {
		return nil
	}
	n := e.cfg.N
	accused := make(map[int]bool)
	for _, a := range accusations {
		accused[a.accused] = true
		for l := 0; l < n; l++ {
			if l == a.accuser || !e.mesh.Alive(l) {
				continue
			}
			msg := transport.Message{From: a.accuser, To: l, Kind: KindAccuse,
				ShareIdx: a.accused, Payload: []float64{float64(a.accused)}}
			if err := e.mesh.Send(msg); err != nil {
				return err
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
		if accused[c] {
			e.excluded = append(e.excluded, c)
			continue
		}
		kept = append(kept, c)
	}
	e.contributors = kept
	sort.Ints(e.excluded)
	return nil
}

// ---- phase 3, as the all-peers engine ran it ----

// finish runs the subtotal exchange over the subtotals the peers report
// and fills in the guard's findings.
func (e *refEngine) finish() (*Result, error) {
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

// subtotal returns the subtotal of share index s that peer j reports,
// or nil when it reports none: j crashed, does not hold s, or did not
// fold every final contributor's share of it.
func (e *refEngine) subtotal(j, s int) []float64 {
	if !e.computed[j] {
		return nil
	}
	return e.subtotals[j][s]
}

// corruptSubtotals applies peer j's subtotal-lying behavior in place,
// after honest computation.
func (e *refEngine) corruptSubtotals(j int) {
	b := e.byz(j)
	if b != ByzInflateSubtotal && b != ByzZeroSubtotal {
		return
	}
	for _, s := range e.replicas[j] {
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

// validSubtotal reports whether m is a well-formed subtotal message for
// this round: right kind, in-range share index and sender, and a payload
// of the model dimension.
func (e *refEngine) validSubtotal(m transport.Message) bool {
	return m.Kind == KindSubtotal &&
		m.ShareIdx >= 0 && m.ShareIdx < e.cfg.N &&
		m.From >= 0 && m.From < e.cfg.N &&
		len(m.Payload) == e.dim
}

// finishBroadcast implements Alg. 2 lines 7–9: every peer broadcasts its
// own subtotal; everyone averages. Any missing subtotal aborts.
func (e *refEngine) finishBroadcast() (*Result, error) {
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
	got := make([][]float64, n)
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
func (e *refEngine) finishLeader() (*Result, error) {
	n, k, leader := e.cfg.N, e.cfg.K, e.cfg.Leader
	if !e.mesh.Alive(leader) || !e.computed[leader] {
		return nil, ErrLeaderCrashed
	}
	have := make([][]float64, n)
	for _, s := range e.replicas[leader] {
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
func (e *refEngine) recycle(msgs []transport.Message) {
	for _, m := range msgs {
		e.mesh.Recycle(m.Payload)
	}
}

// average sums all n subtotals, in ascending share-index order so the
// result is bit-for-bit deterministic, and divides by the number of
// contributing models (Eq. 1–3 generalized to dropouts).
func (e *refEngine) average(subtotals [][]float64) []float64 {
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

// finishLeaderGuarded is the robust replacement for finishLeader: every
// alive holder of every share index submits its subtotal copy, the
// coordinate-wise median merges them, and copies disagreeing with the
// combined value beyond guardTolerance are counted as mismatches. The
// leader's result is then audited for equivocation before release.
func (e *refEngine) finishLeaderGuarded() (*Result, error) {
	n, k, leader := e.cfg.N, e.cfg.K, e.cfg.Leader
	if !e.mesh.Alive(leader) || !e.computed[leader] {
		return nil, ErrLeaderCrashed
	}
	have := make([][]float64, n)
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
			}
		}
		if !ownerPresent {
			recovered = append(recovered, s)
		}
		have[s] = comb
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
// exposed even when each copy is self-consistent.
func (e *refEngine) auditLeader(have [][]float64, avg []float64) error {
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
	}
	return nil
}
