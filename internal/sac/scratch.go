package sac

import "sync"

// Scratch is the memory of one process's rounds, keyed by the round
// shape (N, K, dim) and re-provisioned when it changes: the N Peers a
// round steps, each owning its N−K+1 subtotals and its per-round
// bookkeeping (see Peer), and one N·dim share block per contributor
// (fed to Divider.DivideInto). A receiver holds the shares it is sent
// until the round ends, and on an in-memory mesh those are views of the
// sender's block, so no block may serve two contributors of one round.
// One Scratch serves a sequence of same-shaped aggregations — the steady
// state of federated training — allocating nothing but Result.Avg per
// round.
//
// Every aggregation runs on a Scratch. Config.Scratch names one the
// caller owns; with Config.Scratch nil Run borrows a spare working set
// from a package-level list (BorrowScratch) and gives it back when it
// returns (ReturnScratch). That list keeps at most two idle sets, each
// N·(2N−K+1)·dim floats of the shape it last ran, for the life of the
// process. A caller that runs its SACs one after the other borrows
// (core.System, which lends the borrowed set's peers to its round nodes
// for one SAC at a time: SplitPeers yields at most two subgroup
// shapes); one that runs many at once passes its own (core's X-layer
// tree, one Scratch per worker).
//
// Reuse is observationally invisible: every buffer is fully overwritten
// before it is read and Result.Avg is never a Scratch's (Run allocates
// it, a Schedule caller lends it), so results are bit-identical on a
// new, a reused and a borrowed Scratch.
// The one sharp edge is aliasing. Share payloads sent through an
// in-memory mesh point into the sender's share block, which its next
// round overwrites, and subtotal payloads point into the subtotals,
// which the next round overwrites: a Mesh.Observe callback (or anything
// else that sees a payload in flight) must copy what it keeps. A
// Scratch must not be shared by two concurrent aggregations.
//
// The zero value is ready to use; pass it via Config.Scratch.
type Scratch struct {
	n, k, dim int
	blocks    []shareBlock // one per contributor
	peers     []Peer
	fabric    meshFabric // Run's, for the length of a call
}

// Peers arms the scratch's peers for a round of cfg over dim-weight
// models and returns them, for Schedule to step; a shape change starts
// over from the zero value.
func (s *Scratch) Peers(cfg Config, dim int) ([]Peer, error) {
	if s.n != cfg.N || s.k != cfg.K || s.dim != dim {
		*s = Scratch{n: cfg.N, k: cfg.K, dim: dim, blocks: make([]shareBlock, cfg.N), peers: make([]Peer, cfg.N)}
	}
	for j := range s.peers {
		s.peers[j].block = &s.blocks[j]
		if err := s.peers[j].Begin(j, cfg, dim); err != nil {
			return nil, err
		}
	}
	return s.peers, nil
}

// maxSpares bounds the idle working sets kept for Scratch == nil rounds.
const maxSpares = 2

// spares is the list those rounds borrow from. A mutex-guarded list and
// not a sync.Pool: a pool's per-P slots miss whenever the calling
// goroutine migrates, which turns what a round allocates into
// scheduling noise; the list hits every time.
var spares struct {
	sync.Mutex
	idle []*Scratch
}

// BorrowScratch takes an idle working set — one of the wanted shape
// when there is one — or starts a new one.
func BorrowScratch(n, k, dim int) *Scratch {
	spares.Lock()
	defer spares.Unlock()
	pick := len(spares.idle) - 1
	if pick < 0 {
		return &Scratch{}
	}
	for i, s := range spares.idle {
		if s.n == n && s.k == k && s.dim == dim {
			pick = i
			break
		}
	}
	s, last := spares.idle[pick], len(spares.idle)-1
	spares.idle[pick], spares.idle[last] = spares.idle[last], nil
	spares.idle = spares.idle[:last]
	return s
}

// ReturnScratch gives a borrowed working set back; beyond maxSpares it
// is left to the garbage collector.
func ReturnScratch(s *Scratch) {
	spares.Lock()
	defer spares.Unlock()
	if len(spares.idle) < maxSpares {
		spares.idle = append(spares.idle, s)
	}
}
