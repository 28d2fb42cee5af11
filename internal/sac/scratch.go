package sac

import "sync"

// Scratch is the memory of one process's rounds, keyed by the round
// shape (N, K, dim) and re-provisioned when it changes: the N Peers a
// round steps, each owning its N−K+1 running subtotals and its per-round
// bookkeeping (see Peer), and the one N·dim share block they divide into
// (fed to Divider.DivideInto) — peers on one host take turns, so one
// block serves them all, where a Peer on its own has its own. One Scratch
// serves a sequence of same-shaped aggregations — the steady state of
// federated training — allocating nothing but Result.Avg per round.
//
// Every aggregation runs on a Scratch. Config.Scratch names one the
// caller owns; with Config.Scratch nil Run borrows a spare working set
// from a package-level list and gives it back when it returns. That
// list keeps at most two idle sets, each N·(N−K+2)·dim floats of the
// shape it last ran, for the life of the process. A caller that runs
// its SACs one after the other borrows (core.System: SplitPeers yields
// at most two subgroup shapes); one that runs many at once passes its
// own (core's X-layer tree, one Scratch per worker).
//
// Reuse is observationally invisible: every buffer is fully overwritten
// before it is read and Result.Avg is always freshly allocated, so
// results are bit-identical on a new, a reused and a borrowed Scratch.
// The one sharp edge is aliasing. Share payloads sent through an
// in-memory mesh point into the share block, which the next
// contributor's turn overwrites, and subtotal payloads point into the
// running subtotals, which the next round overwrites: a Mesh.Observe
// callback (or anything else that sees a payload in flight) must copy
// what it keeps. A Scratch must not be shared by two concurrent
// aggregations.
//
// The zero value is ready to use; pass it via Config.Scratch.
type Scratch struct {
	n, k, dim int
	block     shareBlock
	peers     []Peer
}

// begin arms the scratch's peers for a round of cfg over dim-weight
// models; a shape change starts over from the zero value.
func (s *Scratch) begin(cfg Config, dim int) error {
	if s.n != cfg.N || s.k != cfg.K || s.dim != dim {
		*s = Scratch{n: cfg.N, k: cfg.K, dim: dim, peers: make([]Peer, cfg.N)}
	}
	for j := range s.peers {
		s.peers[j].block = &s.block
		if err := s.peers[j].Begin(j, cfg, dim); err != nil {
			return err
		}
	}
	return nil
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

// borrowScratch takes an idle working set — one of the wanted shape
// when there is one — or starts a new one.
func borrowScratch(n, k, dim int) *Scratch {
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

// returnScratch gives a borrowed working set back; beyond maxSpares it
// is left to the garbage collector.
func returnScratch(s *Scratch) {
	spares.Lock()
	defer spares.Unlock()
	if len(spares.idle) < maxSpares {
		spares.idle = append(spares.idle, s)
	}
}
