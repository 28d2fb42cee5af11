package sac

import (
	"sync"

	"repro/internal/secretshare"
)

// Scratch is the engine's working set, keyed by the round shape
// (N, K, dim) and re-provisioned when it changes: the one N·dim share
// block every contributor is divided into in turn (fed to
// Divider.DivideInto), the N·(N−K+1) running subtotals the shares are
// folded into as they arrive, and the flat per-round bookkeeping (fold
// counts, the current turn's held shares, the accusation table). One
// Scratch serves a sequence of same-shaped aggregations — the steady
// state of federated training — without allocating anything but
// Result.Avg per round.
//
// Every aggregation runs on a Scratch. Config.Scratch names one the
// caller owns; with Config.Scratch nil the engine borrows a spare
// working set from a package-level list and gives it back when Run
// returns. That list keeps at most two idle sets, each N·(N−K+2)·dim
// floats of the shape it last ran, for the life of the process. A
// caller that runs its SACs one after the other borrows (core.System:
// SplitPeers yields at most two subgroup shapes); one that runs many at
// once passes its own (core's X-layer tree, one Scratch per worker).
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
	r         int // n−k+1: share indices held per peer

	block []float64   // the current contributor's n shares, flat
	views [][]float64 // and the per-share views into it

	// replicas[j] lists the r share indices peer j holds; slot[j*n+s] is
	// the accumulator that sums share index s at peer j, or −1 when j
	// does not hold s. Both depend only on (n, k).
	replicas [][]int
	slot     []int

	// acc is the n·r running subtotals, dim floats each: accumulator
	// j*r+t sums share index replicas[j][t] at peer j. folds counts the
	// contributors folded into each this round; a zero count is what
	// makes the first fold overwrite whatever the last round left.
	acc   []float64
	folds []int

	// pending holds the current turn's screened share per accumulator
	// until every receiver has screened (hold, then fold all or none).
	pending [][]float64

	receiving []bool // peer takes part in the share exchange
	computed  []bool // peer got as far as reporting subtotals
	accused   []bool // contributor caught by the range guard
	accusedBy []bool // [j*n+i]: honest receiver j caught contributor i
	nAccused  int    // pairs set in accusedBy

	have [][]float64 // the n subtotals a collector assembles, by share index
}

// begin arms the scratch for a round of shape (n, k, dim): a shape
// change re-provisions everything, and the per-round state is cleared.
func (s *Scratch) begin(n, k, dim int) error {
	if s.n != n || s.k != k || s.dim != dim {
		if err := s.provision(n, k, dim); err != nil {
			return err
		}
	}
	clear(s.folds)
	clear(s.pending)
	clear(s.receiving)
	clear(s.computed)
	clear(s.accused)
	clear(s.accusedBy)
	s.nAccused = 0
	clear(s.have)
	return nil
}

func (s *Scratch) provision(n, k, dim int) error {
	r := n - k + 1
	flat := make([]int, 0, n*r)
	replicas := make([][]int, n)
	slot := make([]int, n*n)
	for i := range slot {
		slot[i] = -1
	}
	for j := 0; j < n; j++ {
		start := len(flat)
		var err error
		if flat, err = secretshare.AppendReplicaIndices(flat, j, n, k); err != nil {
			return err
		}
		replicas[j] = flat[start:len(flat):len(flat)]
		for t, idx := range replicas[j] {
			slot[j*n+idx] = j*r + t
		}
	}
	*s = Scratch{
		n: n, k: k, dim: dim, r: r, // block and views: DivideInto grows them
		replicas: replicas, slot: slot,
		acc: make([]float64, n*r*dim), folds: make([]int, n*r),
		pending:   make([][]float64, n*r),
		receiving: make([]bool, n), computed: make([]bool, n),
		accused: make([]bool, n), accusedBy: make([]bool, n*n),
		have: make([][]float64, n),
	}
	return nil
}

// end drops the references a finished round leaves into memory the
// scratch does not own (mesh payloads, combined subtotals).
func (s *Scratch) end() {
	clear(s.pending)
	clear(s.have)
}

// accVec returns accumulator a's dim-length vector.
func (s *Scratch) accVec(a int) []float64 {
	return s.acc[a*s.dim : (a+1)*s.dim : (a+1)*s.dim]
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
