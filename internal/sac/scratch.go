package sac

import (
	"repro/internal/secretshare"
	"repro/internal/transport"
)

// Scratch holds the engine's round-to-round reusable buffers: the
// per-contributor flat share blocks (fed to Divider.DivideInto), the
// dim-length subtotal vectors, and the map containers of the receive
// and subtotal bookkeeping. All buffers are keyed by the round shape
// (N, dim) and dropped when it changes, so one Scratch can serve a
// sequence of same-shaped aggregations — the steady state of federated
// training, where every round splits the same model dimension across
// the same subgroup — without re-allocating ~N²·dim floats per round.
//
// Reuse is observationally invisible: vectors are zeroed (or fully
// overwritten) when grabbed, maps are cleared, and Result.Avg is always
// freshly allocated, so results stay bit-identical with and without a
// Scratch. The one sharp edge is aliasing: share and subtotal payloads
// sent through the mesh point into scratch memory, which the next
// round overwrites. Mesh observers (Mesh.Observe) that retain payloads
// across rounds must copy them, and a Scratch must not be shared by
// two concurrent aggregations — give each subgroup its own (core.System
// does exactly that).
//
// The zero value is ready to use; pass it via Config.Scratch.
type Scratch struct {
	n, dim int

	shareBlocks [][]float64   // contributor i's flat n·dim share backing
	shareViews  [][][]float64 // and its per-share views into the block

	subVecs []([]float64) // free list of dim-length subtotal vectors
	subNext int           // vectors handed out this round

	received []map[int]map[int][]float64 // phase-1 outer containers
	inner    []map[int][]float64         // free list of by-contributor maps
	innNext  int

	subtotals []map[int][]float64   // phase-2 per-peer containers
	have      map[int][]float64     // leader's collected subtotals
	keys      []int                 // sort scratch for average
	drained   [][]transport.Message // phase-1 inboxes, held until summed

	// replicas caches the (n, k) replica assignment: it depends only on
	// the round shape, so the engine computes it once per shape instead
	// of n+1 allocations per round (which at X-layer scale — tens of
	// thousands of subgroup SACs per aggregation — dominated the garbage).
	replicas [][]int
	replFlat []int
	replK    int
}

// begin rearms the scratch for a round of shape (n, dim): free lists
// rewind so every buffer handed out last round is reclaimable, and a
// shape change drops everything.
func (s *Scratch) begin(n, dim int) {
	if s == nil {
		return
	}
	if s.n != n || s.dim != dim {
		*s = Scratch{n: n, dim: dim}
	}
	s.subNext = 0
	s.innNext = 0
}

// shareScratch returns contributor i's division scratch (nil slices on
// first use — DivideInto grows them).
func (s *Scratch) shareScratch(i int) ([]float64, [][]float64) {
	if s == nil {
		return nil, nil
	}
	if len(s.shareBlocks) < s.n {
		s.shareBlocks = make([][]float64, s.n)
		s.shareViews = make([][][]float64, s.n)
	}
	return s.shareBlocks[i], s.shareViews[i]
}

// keepShareScratch stores contributor i's (possibly regrown) division
// buffers for the next round.
func (s *Scratch) keepShareScratch(i int, block []float64, views [][]float64) {
	if s == nil {
		return
	}
	s.shareBlocks[i] = block
	s.shareViews[i] = views
}

// subVec returns a zeroed dim-length vector, reusing last round's.
func (s *Scratch) subVec(dim int) []float64 {
	if s == nil {
		return make([]float64, dim)
	}
	if s.subNext == len(s.subVecs) {
		s.subVecs = append(s.subVecs, make([]float64, dim))
	}
	v := s.subVecs[s.subNext][:dim]
	s.subNext++
	for i := range v {
		v[i] = 0
	}
	return v
}

// receivedMaps returns the phase-1 receive structure: n empty outer
// maps (cleared, not reallocated, on reuse).
func (s *Scratch) receivedMaps(n int) []map[int]map[int][]float64 {
	if s == nil {
		out := make([]map[int]map[int][]float64, n)
		for j := range out {
			out[j] = make(map[int]map[int][]float64)
		}
		return out
	}
	if len(s.received) != n {
		s.received = make([]map[int]map[int][]float64, n)
	}
	for j := range s.received {
		if s.received[j] == nil {
			s.received[j] = make(map[int]map[int][]float64)
		} else {
			clear(s.received[j])
		}
	}
	return s.received
}

// innerMap returns an empty by-contributor share map from the free
// list.
func (s *Scratch) innerMap() map[int][]float64 {
	if s == nil {
		return make(map[int][]float64)
	}
	if s.innNext == len(s.inner) {
		s.inner = append(s.inner, make(map[int][]float64))
	}
	m := s.inner[s.innNext]
	s.innNext++
	clear(m)
	return m
}

// subtotalSlice returns the phase-2 per-peer slice, nil-filled. The
// per-peer maps themselves come from innerMap (same shape).
func (s *Scratch) subtotalSlice(n int) []map[int][]float64 {
	if s == nil {
		return make([]map[int][]float64, n)
	}
	if len(s.subtotals) != n {
		s.subtotals = make([]map[int][]float64, n)
	}
	for j := range s.subtotals {
		s.subtotals[j] = nil
	}
	return s.subtotals
}

// haveMap returns the leader's empty subtotal-collection map.
func (s *Scratch) haveMap(n int) map[int][]float64 {
	if s == nil {
		return make(map[int][]float64, n)
	}
	if s.have == nil {
		s.have = make(map[int][]float64, n)
	} else {
		clear(s.have)
	}
	return s.have
}

// replicaSets returns the cached replica assignment for shape (n, k),
// computing it on first use (or when k changed under an unchanged n —
// begin only keys on (n, dim)). The sets share one flat backing array.
func (s *Scratch) replicaSets(n, k int) ([][]int, error) {
	if s.replicas != nil && len(s.replicas) == n && s.replK == k {
		return s.replicas, nil
	}
	sets := make([][]int, n)
	flat := make([]int, 0, n*(n-k+1))
	for j := 0; j < n; j++ {
		start := len(flat)
		var err error
		flat, err = secretshare.AppendReplicaIndices(flat, j, n, k)
		if err != nil {
			return nil, err
		}
		sets[j] = flat[start:len(flat):len(flat)]
	}
	s.replicas, s.replFlat, s.replK = sets, flat, k
	return sets, nil
}

// drainedInboxes returns an empty list with room for the n share
// inboxes phase 1 drains. The engine nils the entries out once it has
// recycled them, so a Scratch never pins a finished round's messages.
func (s *Scratch) drainedInboxes(n int) [][]transport.Message {
	if s == nil {
		return make([][]transport.Message, 0, n)
	}
	if cap(s.drained) < n {
		s.drained = make([][]transport.Message, 0, n)
	}
	return s.drained[:0]
}

// sortKeys returns a reusable int slice for average's deterministic
// key ordering.
func (s *Scratch) sortKeys(capHint int) []int {
	if s == nil {
		return make([]int, 0, capHint)
	}
	if cap(s.keys) < capHint {
		s.keys = make([]int, 0, capHint)
	}
	return s.keys[:0]
}
