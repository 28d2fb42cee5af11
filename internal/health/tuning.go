package health

// Tuning derives Raft election-timeout bands from observed RTT
// quantiles — the internal/health → internal/raft feedback loop of the
// WAN profile (DESIGN.md §13). The rule is the classic deployment
// guidance made adaptive: the election timeout should be an order of
// magnitude above the broadcast time, so
//
//	minTicks = clamp(Multiple × RTT_q / TickUs, [MinTicks, MaxTicks])
//	maxTicks = min(minTicks × Spread, MaxTicks × Spread)
//
// where RTT_q is the worst per-peer q-quantile over peers with enough
// samples. Everything here is pure integer/float arithmetic over the
// RTTStats windows: equal sample sequences give byte-identical bands,
// so retuning composes with deterministic replay (and
// Node.SetElectionTicks rescales the armed timer without an rng draw).
type Tuning struct {
	// TickUs is the raft tick duration in microseconds (the simulated
	// fleet ticks every 1000 µs). Required, must be > 0.
	TickUs int64
	// Multiple scales the RTT quantile up to the minimum election
	// timeout. Default 10 — "an order of magnitude above broadcast time".
	Multiple float64
	// Quantile selects which per-peer RTT order statistic to cover.
	// Default 0.99: the band must cover jitter tails, not medians.
	Quantile float64
	// MinTicks / MaxTicks clamp the derived minimum timeout. Defaults
	// 50 (the paper's LAN default — tuning never goes below stock) and
	// 5000 (5 virtual seconds — a liveness floor even on broken links).
	MinTicks int
	MaxTicks int
	// Spread is maxTicks/minTicks, preserving the paper's U(T, 2T)
	// randomization shape. Default 2.
	Spread float64
	// MinSamples is how many samples a peer needs before it
	// participates; with no peer qualified, ElectionTicks reports !ok
	// and the caller keeps its current band. Default 16.
	MinSamples int
}

func (t Tuning) normalized() Tuning {
	if t.Multiple <= 0 {
		t.Multiple = 10
	}
	if t.Quantile <= 0 || t.Quantile > 1 {
		t.Quantile = 0.99
	}
	if t.MinTicks <= 0 {
		t.MinTicks = 50
	}
	if t.MaxTicks <= t.MinTicks {
		t.MaxTicks = 5000
		if t.MaxTicks <= t.MinTicks {
			t.MaxTicks = 2 * t.MinTicks
		}
	}
	if t.Spread <= 1 {
		t.Spread = 2
	}
	if t.MinSamples <= 0 {
		t.MinSamples = 16
	}
	return t
}

// ElectionTicks derives the [min, max) election band from the tracker's
// current windows. ok is false (and the returned band zero) when TickUs
// is unset or no peer has MinSamples samples yet — the caller keeps its
// current configuration.
func (t Tuning) ElectionTicks(r *RTTStats) (min, max int, ok bool) {
	t = t.normalized()
	if t.TickUs <= 0 || r == nil {
		return 0, 0, false
	}
	rtt, qualified := r.MaxQuantile(t.Quantile, t.MinSamples)
	if qualified == 0 || rtt <= 0 {
		return 0, 0, false
	}
	target := t.Multiple * float64(rtt) / float64(t.TickUs)
	min = int(target)
	if float64(min) < target {
		min++ // ceil: never tune *below* the multiple
	}
	if min < t.MinTicks {
		min = t.MinTicks
	}
	if min > t.MaxTicks {
		min = t.MaxTicks
	}
	max = int(float64(min) * t.Spread)
	if max <= min {
		max = min + 1
	}
	return min, max, true
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
