// Package health is a last-activity failure detector: the layer that
// turns raw message arrivals into explicit Up / Suspect / Down verdicts
// about peers, so the rest of the system can *react* to a failed peer
// instead of waiting for a protocol timeout to limp past it. Bonawitz et
// al. (Practical Secure Aggregation) treat dropout detection as a
// first-class protocol input; this package is that input for both the
// live runtime (cmd/p2pfl-node, fed by transport activity) and the
// simulated two-layer cluster (internal/cluster, fed by simnet message
// delivery).
//
// Design rules (see DESIGN.md §9):
//
//   - The clock is pluggable (Options.Clock, microseconds): live
//     processes install telemetry.WallClock, simulations install the
//     virtual clock, so the same detector logic runs — and is tested —
//     under deterministic virtual time.
//
//   - Thresholds derive from the expected activity interval
//     (Options.TickIntervalUs, normally the raft heartbeat interval):
//     a peer is Suspect after suspectTicks intervals without activity
//     and Down after downTicks. Verdicts only change on Tick (and on
//     Observe for recovery), so a single-goroutine driver — the simnet
//     event loop or the node's main loop — sees fully deterministic
//     transition times; Tick evaluates peers in ascending id order so
//     callback order is deterministic too.
//
//   - Raft traffic is asymmetric: on a quiet group only the leader
//     talks, so a follower can only ever judge its leader, while the
//     leader (receiving AppendResponses) can judge everyone. The watch
//     set (SetWatch) encodes this: verdicts are evaluated only for
//     watched peers; activity is tracked for all known peers so a
//     watch-set change starts from real data.
package health

import (
	"errors"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// State is a peer's health verdict.
type State int32

// Peer states, ordered by increasing severity.
const (
	Up State = iota
	Suspect
	Down
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// Transition is one state change, delivered to Options.OnTransition.
// SinceActivityUs is the gap between the peer's last observed activity
// and the moment of the verdict; ThresholdUs is the bound that was
// crossed (0 for recoveries to Up). Invariant checkers use the pair to
// prove no false Down was ever issued.
type Transition struct {
	Peer            uint64
	From, To        State
	AtUs            int64
	SinceActivityUs int64
	ThresholdUs     int64
}

// Options configures a Detector.
type Options struct {
	// TickIntervalUs is the expected activity interval in microseconds
	// (normally the raft heartbeat interval). Required, must be > 0.
	TickIntervalUs int64
	// Clock returns the current time in microseconds. Required: live
	// callers pass telemetry.WallClock, simulations the virtual clock.
	Clock func() int64
	// OnTransition, if set, is called for every state change. Calls are
	// made outside the detector lock, in deterministic order, from
	// whichever goroutine invoked Tick/Observe.
	OnTransition func(Transition)
	// Telemetry receives transition counters and trace events. A nil
	// registry is a valid no-op sink.
	Telemetry *telemetry.Registry
	// Owner tags telemetry trace events with the observing node's id.
	Owner uint64
}

// suspectTicks and downTicks are how many activity intervals of silence
// mark a peer Suspect, then Down.
const (
	suspectTicks = 2
	downTicks    = 3
)

// PeerStatus is one row of Snapshot.
type PeerStatus struct {
	Peer            uint64 `json:"peer"`
	State           string `json:"state"`
	Watched         bool   `json:"watched"`
	SinceActivityUs int64  `json:"since_activity_us"`
}

type peerInfo struct {
	lastActivity int64
	state        State
	watched      bool
}

// Detector tracks last-seen activity per peer and derives health
// verdicts. All methods are safe for concurrent use; verdict changes
// happen only inside Tick and Observe.
type Detector struct {
	mu    sync.Mutex
	opts  Options
	peers map[uint64]*peerInfo

	suspectAfter int64
	downAfter    int64

	transUp, transSuspect, transDown *telemetry.Counter
}

// New builds a detector over the given peer set. All peers start Up
// and watched, with last activity set to "now" so the first verdicts
// need a full threshold of real silence.
func New(peers []uint64, o Options) (*Detector, error) {
	if o.TickIntervalUs <= 0 {
		return nil, errors.New("health: TickIntervalUs must be > 0")
	}
	if o.Clock == nil {
		return nil, errors.New("health: Clock is required")
	}
	d := &Detector{
		opts:         o,
		peers:        make(map[uint64]*peerInfo, len(peers)),
		suspectAfter: suspectTicks * o.TickIntervalUs,
		downAfter:    downTicks * o.TickIntervalUs,
		transUp:      o.Telemetry.Counter("health/transitions_up"),
		transSuspect: o.Telemetry.Counter("health/transitions_suspect"),
		transDown:    o.Telemetry.Counter("health/transitions_down"),
	}
	now := o.Clock()
	for _, p := range peers {
		d.peers[p] = &peerInfo{lastActivity: now, state: Up, watched: true}
	}
	return d, nil
}

// SetWatch replaces the watch set: verdicts are evaluated only for the
// given peers. A peer newly added to the watch set restarts Up with
// last activity "now" (no transition emitted) — watching is a decision
// to start timing a peer, not evidence about its past. Passing an empty
// slice watches nobody. Unknown ids are added to the peer table.
func (d *Detector) SetWatch(ids []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.opts.Clock()
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for id, pi := range d.peers {
		if want[id] && !pi.watched {
			pi.watched = true
			pi.lastActivity = now
			pi.state = Up
		} else if !want[id] {
			pi.watched = false
		}
	}
	for id := range want {
		if _, ok := d.peers[id]; !ok {
			d.peers[id] = &peerInfo{lastActivity: now, state: Up, watched: true}
		}
	}
}

// WatchSet is the watch-set policy of a raft group member — whose
// silence means something follows raft's traffic asymmetry: a leader
// hears from every co-member (append responses), so it watches them
// all; a follower hears only from its leader (leader 0 = none known);
// a candidate or leaderless follower hears from no one in particular.
// members may include self. The result is what SetWatch takes.
func WatchSet(isLeader bool, self, leader uint64, members []uint64) []uint64 {
	switch {
	case isLeader:
		var others []uint64
		for _, id := range members {
			if id != self {
				others = append(others, id)
			}
		}
		return others
	case leader != 0 && leader != self:
		return []uint64{leader}
	default:
		return nil
	}
}

// Observe records activity from a peer (a message arrived, a connection
// made progress). A watched peer that was Suspect or Down recovers to
// Up immediately. Unknown peers are added to the table so later watch
// changes can pick them up.
func (d *Detector) Observe(peer uint64) {
	d.mu.Lock()
	now := d.opts.Clock()
	pi, ok := d.peers[peer]
	if !ok {
		pi = &peerInfo{state: Up}
		d.peers[peer] = pi
	}
	since := now - pi.lastActivity
	pi.lastActivity = now
	var tr *Transition
	if pi.watched && pi.state != Up {
		tr = &Transition{Peer: peer, From: pi.state, To: Up, AtUs: now, SinceActivityUs: since}
		pi.state = Up
	}
	d.mu.Unlock()
	if tr != nil {
		d.emit(*tr)
	}
}

// Tick evaluates watched peers against the silence thresholds and emits
// any Suspect/Down transitions, in ascending peer-id order. The caller
// drives it at roughly TickIntervalUs cadence; detection latency is
// bounded by threshold + one tick.
func (d *Detector) Tick() {
	d.mu.Lock()
	now := d.opts.Clock()
	ids := make([]uint64, 0, len(d.peers))
	for id, pi := range d.peers {
		if pi.watched {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var trs []Transition
	for _, id := range ids {
		pi := d.peers[id]
		gap := now - pi.lastActivity
		switch {
		case gap >= d.downAfter && pi.state != Down:
			trs = append(trs, Transition{Peer: id, From: pi.state, To: Down, AtUs: now, SinceActivityUs: gap, ThresholdUs: d.downAfter})
			pi.state = Down
		case gap >= d.suspectAfter && pi.state == Up:
			trs = append(trs, Transition{Peer: id, From: Up, To: Suspect, AtUs: now, SinceActivityUs: gap, ThresholdUs: d.suspectAfter})
			pi.state = Suspect
		}
	}
	d.mu.Unlock()
	for _, tr := range trs {
		d.emit(tr)
	}
}

// State returns the peer's current verdict and whether it is known.
func (d *Detector) State(peer uint64) (State, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pi, ok := d.peers[peer]
	if !ok {
		return Up, false
	}
	return pi.state, true
}

// Snapshot returns every known peer's status in ascending id order,
// with silence gaps measured at a single clock read.
func (d *Detector) Snapshot() []PeerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.opts.Clock()
	out := make([]PeerStatus, 0, len(d.peers))
	for id, pi := range d.peers {
		out = append(out, PeerStatus{
			Peer:            id,
			State:           pi.state.String(),
			Watched:         pi.watched,
			SinceActivityUs: now - pi.lastActivity,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Reset marks every peer Up with last activity "now", without emitting
// transitions. Cluster drivers call it when the owning node restarts:
// a reborn node has no basis for old verdicts.
func (d *Detector) Reset() {
	d.mu.Lock()
	now := d.opts.Clock()
	for _, pi := range d.peers {
		pi.lastActivity = now
		pi.state = Up
	}
	d.mu.Unlock()
}

// Forget drops every trace of a departed peer: verdict state and watch
// membership, without emitting a transition. Cluster drivers call it
// when a peer leaves the membership for good — keeping the row would
// both leak (the table otherwise only ever grows) and poison a future
// re-admission of the same id with a stale Down verdict. A later Observe or SetWatch of the id re-adds it fresh, with
// activity based at that moment.
func (d *Detector) Forget(peer uint64) {
	d.mu.Lock()
	delete(d.peers, peer)
	d.mu.Unlock()
}

func (d *Detector) emit(tr Transition) {
	switch tr.To {
	case Up:
		d.transUp.Inc()
	case Suspect:
		d.transSuspect.Inc()
	case Down:
		d.transDown.Inc()
	}
	d.opts.Telemetry.Trace("health/"+tr.To.String(), tr.Peer, -1,
		telemetry.F("owner", int64(d.opts.Owner)),
		telemetry.F("since_activity_us", tr.SinceActivityUs))
	if d.opts.OnTransition != nil {
		d.opts.OnTransition(tr)
	}
}
