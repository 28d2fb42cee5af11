// Package simnet is a discrete-event network simulator with a virtual
// clock. It replaces the paper's single-machine testbed (virtual peers
// over TCP with tc-injected 15 ms latency): raft nodes are ticked every
// virtual millisecond and messages are delivered after a configurable
// one-way latency, so 1000 recovery-time trials run in seconds of wall
// clock while reporting virtual milliseconds directly comparable to the
// paper's Figs. 10–12.
package simnet

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/raft"
	"repro/internal/wire"
)

// Time is virtual time in microseconds since simulation start.
type Time int64

// Duration is a virtual duration in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000
	Second      Duration = 1000 * Millisecond
)

// Ms renders a Time as fractional milliseconds.
func (t Time) Ms() float64 { return float64(t) / 1000 }

// Ms renders a Duration as fractional milliseconds.
func (d Duration) Ms() float64 { return float64(d) / 1000 }

type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run in schedule order
	fn  func()
}

// before is the queue's one ordering: ascending (at, seq). seq is unique,
// so the order is total and equal-seed runs replay event for event.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events on before, written on the
// slice itself: no interface call per level and no boxing per push or
// pop.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the earliest event. The vacated slot is
// cleared so the queue keeps no reference to a closure it has handed out.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
	return top
}

// Sim is the discrete-event scheduler. It is not safe for concurrent use:
// all event handlers run on the caller's goroutine, which is what makes
// runs deterministic.
type Sim struct {
	now    Time
	seq    uint64
	events eventQueue
}

// New creates an empty simulation at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Schedule runs fn after the given delay (clamped to ≥ 0).
func (s *Sim) Schedule(after Duration, fn func()) {
	if after < 0 {
		after = 0
	}
	s.seq++
	s.events.push(event{at: s.now + Time(after), seq: s.seq, fn: fn})
}

// Step executes the next event; false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events.pop()
	s.now = e.at
	e.fn()
	return true
}

// RunUntil processes events until the virtual clock reaches t (events at
// exactly t still run) or the queue empties.
func (s *Sim) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the clock by d.
func (s *Sim) RunFor(d Duration) { s.RunUntil(s.now + Time(d)) }

// RunWhileNot steps events until cond() is true or the clock passes
// limit; it reports whether cond was met.
func (s *Sim) RunWhileNot(cond func() bool, limit Time) bool {
	for !cond() {
		if len(s.events) == 0 || s.events[0].at > limit {
			return false
		}
		s.Step()
	}
	return true
}

// Group drives a set of raft nodes that share one consensus group over
// the simulated network: each host is ticked every TickInterval and its
// outbound messages are delivered to group members after Latency.
type Group struct {
	sim  *Sim
	name string

	// Latency is the one-way message delay; the paper uses 15 ms.
	Latency Duration
	// Jitter adds U(0, Jitter) to each delivery.
	Jitter Duration
	// Topo, when non-nil, replaces the uniform Latency model with a
	// multi-region delay matrix (see topology.go): each message's base
	// delay and jitter come from its from→to link. The fault-injection
	// Jitter above still adds on top, so ActDelay composes with any
	// topology. A nil Topo is the legacy path, byte-for-byte.
	Topo *Topology
	// LossRate drops each message independently with this probability —
	// Raft tolerates loss via retransmission-by-timeout, which the
	// failure-injection tests exercise.
	LossRate float64
	// LinkFilter, if set, drops any message for which it returns false —
	// the hook for partitions and asymmetric link failures.
	LinkFilter func(from, to uint64) bool
	// DropFilter, if set, drops any message for which it returns true.
	// Unlike LinkFilter it sees the whole message, so fault campaigns
	// (internal/chaos) can target specific RPC types or directions —
	// e.g. black-holing all AppendEntries from one node.
	DropFilter func(m raft.Message) bool
	// TickInterval is the raft tick period (default 1 ms, so raft tick
	// counts are milliseconds).
	TickInterval Duration
	// OnDeliver, if set, observes every successfully scheduled delivery
	// with the one-way delay that was sampled for it — the feed for
	// RTT-estimating failure detectors (observed RTT ≈ 2× one-way).
	// It runs at delivery time, before the destination steps the message.
	OnDeliver func(m raft.Message, oneWay Duration)

	rng   *rand.Rand
	hosts map[uint64]*Host

	// Traffic accounting, in exact wire-codec frame bytes
	// (wire.RaftFrameSize) so simulated byte counts line up with what
	// the RaftTCP transport would put on a real socket. Offered counts
	// every message a host handed to the network, including those lost
	// to partitions, filters and random loss (the sender cannot tell).
	offeredMsgs  int64
	offeredBytes int64
}

// NewGroup creates a consensus group on sim with the given one-way
// latency and rng for jitter.
func NewGroup(sim *Sim, name string, latency Duration, rng *rand.Rand) *Group {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Group{
		sim:          sim,
		name:         name,
		Latency:      latency,
		TickInterval: Millisecond,
		rng:          rng,
		hosts:        make(map[uint64]*Host),
	}
}

// Name returns the group's label.
func (g *Group) Name() string { return g.name }

// Host is one raft member living in a Group: a raft.Loop on the virtual
// clock. The loop's inputs, Node and observers are the host's own; what
// the host adds is the simulator's — a tick chain, a crash flag, the
// group's network as the loop's Send, and a disk.
type Host struct {
	raft.Loop
	// Store is the host's disk. The group gives each host one that keeps
	// the last image in memory and never fails; a test swaps it for one
	// that does, or for a real file. (It shadows the loop's Store, which
	// is this one behind hostStore's crash.)
	Store raft.Store

	group *Group
	down  bool
	// tickEpoch names the host's one live tick chain. Arming a chain
	// (Add, restart), Crash and Remove advance it, and a chain armed
	// under an earlier epoch ends when it next fires — so a restart
	// inside one tick interval cannot leave the stranded chain running
	// beside the new one.
	tickEpoch uint64

	// OnMessage, if set, observes every message delivered to this host
	// (before the node steps it). Failure detectors hang off this: a
	// delivered message is proof of life for its sender.
	OnMessage func(m raft.Message)
}

// memStore is the disk the group gives a host: the last image saved.
type memStore struct{ image raft.PersistentState }

func (s *memStore) Save(ps raft.PersistentState) error {
	s.image = ps
	return nil
}

// hostStore is what a host's loop saves through: the host's Store, with
// a failure crashing the host, whichever input's Pump found out.
type hostStore struct{ h *Host }

func (s hostStore) Save(ps raft.PersistentState) error {
	err := s.h.Store.Save(ps)
	if err != nil {
		s.h.Crash()
	}
	return err
}

// Add registers node in the group and starts ticking it.
func (g *Group) Add(node *raft.Node) (*Host, error) {
	id := node.ID()
	if _, ok := g.hosts[id]; ok {
		return nil, fmt.Errorf("simnet: duplicate host %d in group %s", id, g.name)
	}
	h := &Host{group: g, Store: &memStore{}}
	h.Loop.Store = hostStore{h}
	h.Send = g.deliver
	if err := h.Start(node); err != nil {
		return nil, err
	}
	g.hosts[id] = h
	g.scheduleTick(h)
	return h, nil
}

// Remove unregisters a host from the group: its tick loop stops, no
// further messages are delivered to it, and its ID becomes free for a
// future Add. The continuous-churn control plane (internal/cluster)
// calls this after a peer's removal ConfChange commits; in-flight
// deliveries to the removed ID are dropped exactly like deliveries to
// an unknown host.
func (g *Group) Remove(id uint64) {
	h, ok := g.hosts[id]
	if !ok {
		return
	}
	h.Crash()
	delete(g.hosts, id)
}

// Host returns the host for id, or nil.
func (g *Group) Host(id uint64) *Host { return g.hosts[id] }

// IDs returns all host IDs in sorted order. Fault campaigns iterate this
// rather than the host map so that target selection is deterministic.
func (g *Group) IDs() []uint64 {
	out := make([]uint64, 0, len(g.hosts))
	for id := range g.hosts {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Leader returns the ID of a live host currently in the Leader state with
// the highest term, or raft.None.
func (g *Group) Leader() uint64 {
	best := raft.None
	var bestTerm uint64
	for id, h := range g.hosts {
		if h.down || h.Node.State() != raft.Leader {
			continue
		}
		if best == raft.None || h.Node.Term() > bestTerm {
			best, bestTerm = id, h.Node.Term()
		}
	}
	return best
}

// scheduleTick arms the host's tick chain under a new epoch: one closure
// that re-schedules itself every TickInterval for as long as that epoch
// is the host's current one.
func (g *Group) scheduleTick(h *Host) {
	h.tickEpoch++
	epoch := h.tickEpoch
	var tick func()
	tick = func() {
		if h.tickEpoch != epoch {
			return
		}
		_ = h.Tick() // a store error has crashed the host, and ended this chain
		g.sim.Schedule(g.TickInterval, tick)
	}
	g.sim.Schedule(g.TickInterval, tick)
}

// Crash stops the host: no more ticks, inbound messages dropped. State
// persisted before the crash survives (see Restart).
func (h *Host) Crash() {
	h.down = true
	h.tickEpoch++
}

// Down reports whether the host has crashed.
func (h *Host) Down() bool { return h.down }

// Restart revives a crashed host from the last image its disk holds:
// the node rejoins as a follower with its durable term/vote/log intact,
// exactly the "crashed server rejoins the cluster at any time" behaviour
// of Raft. cfg supplies the timing parameters (ID must match). A host on
// a swapped Store restarts through RestartFrom with what that store kept.
func (h *Host) Restart(cfg raft.Config) error {
	disk, ok := h.Store.(*memStore)
	if !ok {
		return fmt.Errorf("simnet: host %d saves to a %T, which Restart cannot read back", h.Node.ID(), h.Store)
	}
	return h.RestartFrom(cfg, disk.image)
}

// RestartFrom revives a crashed host from an explicitly transferred
// persisted state instead of its own — the graceful-handoff path: a
// departing peer hands its raft.PersistentState (and model checkpoint)
// to a successor process, which resumes the same logical node without
// replaying history. cfg supplies timing parameters; its ID must match.
func (h *Host) RestartFrom(cfg raft.Config, ps raft.PersistentState) error {
	if !h.down {
		return fmt.Errorf("simnet: host %d is not down", h.Node.ID())
	}
	if cfg.ID != h.Node.ID() {
		return fmt.Errorf("simnet: restart with ID %d on host %d", cfg.ID, h.Node.ID())
	}
	node, err := raft.Restore(cfg, ps)
	if err != nil {
		return err
	}
	if err := h.Start(node); err != nil {
		return err
	}
	h.down = false
	h.group.scheduleTick(h)
	return nil
}

// Partition splits the group: messages only flow between hosts on the
// same side. Clear LinkFilter (or Calm) to reconnect.
func (g *Group) Partition(side map[uint64]bool) {
	g.LinkFilter = func(from, to uint64) bool { return side[from] == side[to] }
}

// Calm removes every injected network fault at once: partitions, message
// filters, loss and jitter. Fault campaigns call it when a schedule
// quiesces so liveness can be checked on a clean network.
func (g *Group) Calm() {
	g.LinkFilter = nil
	g.DropFilter = nil
	g.LossRate = 0
	g.Jitter = 0
}

// OfferedTraffic returns the number of messages hosts handed to the
// network and their total wire-frame bytes.
func (g *Group) OfferedTraffic() (msgs, bytes int64) {
	return g.offeredMsgs, g.offeredBytes
}

func (g *Group) deliver(m raft.Message) {
	g.offeredMsgs++
	g.offeredBytes += int64(wire.RaftFrameSize(m))
	if g.LinkFilter != nil && !g.LinkFilter(m.From, m.To) {
		return
	}
	if g.DropFilter != nil && g.DropFilter(m) {
		return
	}
	if g.LossRate > 0 && g.rng.Float64() < g.LossRate {
		return
	}
	var delay Duration
	if g.Topo != nil {
		delay = g.Topo.SampleDelay(m.From, m.To, g.rng)
	} else {
		delay = g.Latency
	}
	if g.Jitter > 0 {
		delay += Duration(g.rng.Int63n(int64(g.Jitter)))
	}
	g.sim.Schedule(delay, func() {
		dst, ok := g.hosts[m.To]
		if !ok || dst.down {
			return
		}
		if g.OnDeliver != nil {
			g.OnDeliver(m, delay)
		}
		if dst.OnMessage != nil {
			dst.OnMessage(m)
		}
		_ = dst.Step(m) // refused: dropped; a store error has crashed dst
	})
}
