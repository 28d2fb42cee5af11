package health

import "repro/internal/raft"

// electionTicks and Retune derive Raft election-timeout bands from
// observed RTT quantiles — the internal/health → internal/raft feedback
// loop of the WAN profile (DESIGN.md §13). The rule is the classic
// deployment guidance made adaptive: the election timeout should be an
// order of magnitude above the broadcast time, so
//
//	minTicks = clamp(tuneMultiple × RTT_q / tickUs, [floor, tuneMaxTicks])
//	maxTicks = minTicks × tuneSpread
//
// where RTT_q is the worst per-peer tuneQuantile over peers with enough
// samples and floor is the caller's (the cluster keeps it at or above
// the paper's LAN default of 50 ticks and above its heartbeat, so tuning
// never goes below stock). Everything here is pure integer/float
// arithmetic over the RTTStats windows: equal sample sequences give
// byte-identical bands, so retuning composes with deterministic replay
// (and Node.SetElectionTicks rescales the armed timer without an rng
// draw).

const (
	// tickUs is the raft tick in microseconds: the simulated fleet
	// ticks once a virtual millisecond (simnet.Tick).
	tickUs = 1000
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
	// participates; with no peer qualified, electionTicks reports !ok
	// and the caller keeps its current band.
	tuneMinSamples = 16
)

// electionTicks derives the [min, max) election band from the tracker's
// current windows, min at least floor. ok is false (and the returned
// band zero) without a tracker or while no peer has tuneMinSamples
// samples — the caller keeps its current configuration.
func electionTicks(r *RTTStats, floor int) (min, max int, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	rtt, qualified := r.MaxQuantile(tuneQuantile, tuneMinSamples)
	if qualified == 0 || rtt <= 0 {
		return 0, 0, false
	}
	target := tuneMultiple * float64(rtt) / tickUs
	min = int(target)
	if float64(min) < target {
		min++ // ceil: never tune *below* the multiple
	}
	if min < floor {
		min = floor
	}
	// A floor at or above the cap moves the cap: a heartbeat that slow
	// still needs a band above it.
	maxTicks := tuneMaxTicks
	if maxTicks <= floor {
		maxTicks = 2 * floor
	}
	if min > maxTicks {
		min = maxTicks
	}
	return min, tuneSpread * min, true
}

// Retune is one step of the health→raft feedback loop: derive the band
// from one peer's tracker, min at least floor, and rescale the election
// timers of that peer's nodes in place. Without a qualified band they
// keep their current one. The one caller is the cluster's tuning loop
// (internal/cluster), which walks its peers in ascending id order.
func Retune(r *RTTStats, floor int, nodes ...*raft.Node) {
	min, max, ok := electionTicks(r, floor)
	if !ok {
		return
	}
	for _, n := range nodes {
		_ = n.SetElectionTicks(min, max) // the band is clamped to floor, which callers keep above the heartbeat
	}
}
