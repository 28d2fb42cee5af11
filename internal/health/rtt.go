package health

import (
	"sort"
	"sync"
)

// RTTStats tracks per-peer round-trip-time samples in bounded rings and
// answers quantile queries deterministically: at equal sample sequences
// every query returns byte-identical results, so the self-tuning
// timeout loop (Tuning) stays inside the deterministic-replay contract.
//
// The feed is whatever the embedding layer can observe: the simulated
// cluster reports 2× the one-way delivery delay from simnet's OnDeliver
// hook; a live node would time request/response pairs on its transport.
type RTTStats struct {
	mu      sync.Mutex
	cap     int
	rings   map[uint64]*rttRing
	scratch []int64 // pooled sort buffer; quantile queries allocate nothing at steady state
}

type rttRing struct {
	samples []int64 // ring buffer, len == cap once full
	next    int     // next write position
	full    bool
}

// DefaultRTTWindow is the per-peer sample window when NewRTTStats is
// given a non-positive capacity. 128 samples of heartbeat-paced traffic
// cover a few seconds — long enough to see jitter tails, short enough
// to track real route changes.
const DefaultRTTWindow = 128

// NewRTTStats creates a tracker keeping the last cap samples per peer.
func NewRTTStats(cap int) *RTTStats {
	if cap <= 0 {
		cap = DefaultRTTWindow
	}
	return &RTTStats{cap: cap, rings: make(map[uint64]*rttRing)}
}

// Observe records one RTT sample (microseconds) for a peer. Non-positive
// samples are ignored — a zero RTT is a measurement bug, not a network.
func (r *RTTStats) Observe(peer uint64, rttUs int64) {
	if rttUs <= 0 {
		return
	}
	r.mu.Lock()
	ring, ok := r.rings[peer]
	if !ok {
		ring = &rttRing{samples: make([]int64, 0, r.cap)}
		r.rings[peer] = ring
	}
	if len(ring.samples) < r.cap {
		ring.samples = append(ring.samples, rttUs)
	} else {
		ring.samples[ring.next] = rttUs
		ring.full = true
	}
	ring.next = (ring.next + 1) % r.cap
	r.mu.Unlock()
}

// Forget drops a single peer's samples — the departed-peer companion of
// Detector.Forget. A later Observe starts a fresh ring.
func (r *RTTStats) Forget(peer uint64) {
	r.mu.Lock()
	delete(r.rings, peer)
	r.mu.Unlock()
}

// quantileLocked returns the q-quantile (0 ≤ q ≤ 1) of one peer's
// current, non-empty window. The estimator is the nearest-rank order
// statistic at index ceil(q·(n−1)): exact, branch-free and
// deterministic — no interpolation, so equal windows give equal bytes.
func (r *RTTStats) quantileLocked(ring *rttRing, q float64) int64 {
	n := len(ring.samples)
	r.scratch = append(r.scratch[:0], ring.samples...)
	sort.Slice(r.scratch, func(i, j int) bool { return r.scratch[i] < r.scratch[j] })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(n-1))
	if float64(idx) < q*float64(n-1) {
		idx++ // ceil
	}
	if idx >= n {
		idx = n - 1
	}
	return r.scratch[idx]
}

// MaxQuantile returns the largest per-peer q-quantile over peers with at
// least minSamples samples, and how many peers qualified. Election
// timeouts must cover the *slowest* quorum path, so the tuner keys off
// the worst peer, not the mean.
func (r *RTTStats) MaxQuantile(q float64, minSamples int) (int64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var max int64
	qualified := 0
	// Map iteration order is random, but max over a set is order-free:
	// the result is deterministic regardless.
	for _, ring := range r.rings {
		if len(ring.samples) < minSamples {
			continue
		}
		qualified++
		if v := r.quantileLocked(ring, q); v > max {
			max = v
		}
	}
	return max, qualified
}

// Reset drops all samples (cluster drivers call it on node restart,
// mirroring Detector.Reset: a reborn node re-measures its links).
func (r *RTTStats) Reset() {
	r.mu.Lock()
	clear(r.rings)
	r.mu.Unlock()
}
