package health

// Tuning derives Raft election-timeout bands from observed RTT
// quantiles — the internal/health → internal/raft feedback loop of the
// WAN profile (DESIGN.md §13). The rule is the classic deployment
// guidance made adaptive: the election timeout should be an order of
// magnitude above the broadcast time, so
//
//	minTicks = clamp(tuneMultiple × RTT_q / TickUs, [MinTicks, tuneMaxTicks])
//	maxTicks = minTicks × tuneSpread
//
// where RTT_q is the worst per-peer tuneQuantile over peers with enough
// samples. Everything here is pure integer/float arithmetic over the
// RTTStats windows: equal sample sequences give byte-identical bands,
// so retuning composes with deterministic replay (and
// Node.SetElectionTicks rescales the armed timer without an rng draw).
type Tuning struct {
	// TickUs is the raft tick duration in microseconds (the simulated
	// fleet ticks every 1000 µs). Required, must be > 0.
	TickUs int64
	// MinTicks is the floor of the derived minimum timeout. Default 50
	// (the paper's LAN default — tuning never goes below stock).
	MinTicks int
}

const (
	// tuneMultiple scales the RTT quantile up to the minimum election
	// timeout: "an order of magnitude above broadcast time".
	tuneMultiple = 10
	// tuneQuantile is the per-peer RTT order statistic to cover: the
	// band must cover jitter tails, not medians.
	tuneQuantile = 0.99
	// tuneMaxTicks caps the derived minimum timeout: 5 virtual seconds,
	// a liveness floor even on broken links.
	tuneMaxTicks = 5000
	// tuneSpread is maxTicks/minTicks, preserving the paper's U(T, 2T)
	// randomization shape.
	tuneSpread = 2
	// tuneMinSamples is how many samples a peer needs before it
	// participates; with no peer qualified, ElectionTicks reports !ok
	// and the caller keeps its current band.
	tuneMinSamples = 16
)

// ElectionTicks derives the [min, max) election band from the tracker's
// current windows. ok is false (and the returned band zero) when TickUs
// is unset or no peer has tuneMinSamples samples yet — the caller keeps
// its current configuration.
func (t Tuning) ElectionTicks(r *RTTStats) (min, max int, ok bool) {
	if t.TickUs <= 0 || r == nil {
		return 0, 0, false
	}
	if t.MinTicks <= 0 {
		t.MinTicks = 50
	}
	rtt, qualified := r.MaxQuantile(tuneQuantile, tuneMinSamples)
	if qualified == 0 || rtt <= 0 {
		return 0, 0, false
	}
	target := tuneMultiple * float64(rtt) / float64(t.TickUs)
	min = int(target)
	if float64(min) < target {
		min++ // ceil: never tune *below* the multiple
	}
	if min < t.MinTicks {
		min = t.MinTicks
	}
	// A floor at or above the cap moves the cap: a heartbeat that slow
	// still needs a band above it.
	maxTicks := tuneMaxTicks
	if maxTicks <= t.MinTicks {
		maxTicks = 2 * t.MinTicks
	}
	if min > maxTicks {
		min = maxTicks
	}
	return min, tuneSpread * min, true
}

// ElectionTimers is the part of a raft node the tuner drives.
type ElectionTimers interface {
	SetElectionTicks(min, max int) error
}

// Retune is one step of the health→raft feedback loop: derive the band
// from one peer's tracker and rescale the election timers of that
// peer's nodes in place. Without a qualified band they keep their
// current one. Both the cluster's tuning loop and the chaos WAN
// stability world call this, each walking its peers in ascending id
// order.
func (t Tuning) Retune(r *RTTStats, nodes ...ElectionTimers) {
	min, max, ok := t.ElectionTicks(r)
	if !ok {
		return
	}
	for _, n := range nodes {
		_ = n.SetElectionTicks(min, max) // the band is clamped to MinTicks, which callers keep above the heartbeat
	}
}
