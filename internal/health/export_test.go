package health

import "sort"

// Watched returns the current watch set in ascending id order.
func (d *Detector) Watched() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []uint64
	for id, pi := range d.peers {
		if pi.watched {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllUp reports whether every watched peer is currently Up.
func (d *Detector) AllUp() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pi := range d.peers {
		if pi.watched && pi.state != Up {
			return false
		}
	}
	return true
}

// Samples returns how many samples are currently held for a peer.
func (r *RTTStats) Samples(peer uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ring, ok := r.rings[peer]; ok {
		return len(ring.samples)
	}
	return 0
}

// Quantile returns the q-quantile of a peer's current window, or
// ok=false with no samples.
func (r *RTTStats) Quantile(peer uint64, q float64) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring, ok := r.rings[peer]
	if !ok || len(ring.samples) == 0 {
		return 0, false
	}
	return r.quantileLocked(ring, q), true
}
