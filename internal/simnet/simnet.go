// Package simnet is a discrete-event network simulator with a virtual
// clock. It replaces the paper's single-machine testbed (virtual peers
// over TCP with tc-injected 15 ms latency): raft nodes are ticked every
// virtual millisecond and messages are delivered after a configurable
// one-way latency, so 1000 recovery-time trials run in seconds of wall
// clock while reporting virtual milliseconds directly comparable to the
// paper's Figs. 10–12. Hosts whose ticks fall back to back at one
// instant tick in one event, however many of them there are.
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

// bucket is the FIFO of events scheduled for one instant. Appending in
// schedule order is the queue's tie-break, so running a bucket front to
// back is ascending (time, schedule order) with no per-event key.
type bucket struct {
	at   Time // −1 once retired
	fns  []func()
	head int // next event to run
	// block is the tick block scheduled last in the bucket, and the
	// bucket's length just after it: while len(fns) is still blockEnd,
	// a host that ticks at this instant joins block (Sim.place).
	block    *tickBlock
	blockEnd int
}

// instant is a heap entry: a bucket under its time and the order it was
// opened in. Two buckets share an instant only after a collision in the
// open table; the older one runs first.
type instant struct {
	at     Time
	opened uint64
	b      *bucket
}

func (a *instant) before(o *instant) bool {
	if a.at != o.at {
		return a.at < o.at
	}
	return a.opened < o.opened
}

// openSlots sizes the open table: the newest open bucket for each
// at & (openSlots−1).
const openSlots = 64

// Sim is the discrete-event scheduler. It is not safe for concurrent use:
// all event handlers run on the caller's goroutine, which is what makes
// runs deterministic.
//
// Events are kept in buckets per instant, and the binary min-heap orders
// the buckets: when events share instants — on the paper's 15 ms links
// every message lands on a tick instant — most schedules append to an
// open bucket and most steps pop from the front one, touching no heap.
//
// The Sim ticks the hosts of every Group on it in tick blocks (tickBlock
// below): hosts of any group whose ticks fall back to back at one instant
// tick in one event.
type Sim struct {
	now     Time
	heap    []instant
	open    [openSlots]*bucket
	free    []*bucket
	opened  uint64
	pending int          // events scheduled and not yet run
	blocks  []*tickBlock // tick blocks that have run, for reuse
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
	at := s.now + Time(after)
	slot := &s.open[at&(openSlots-1)]
	b := *slot
	if b == nil || b.at != at {
		// No open bucket for at, or it was displaced from the table by
		// another instant: open a new one. An older bucket for at stays
		// in the heap ahead of this one and receives nothing more.
		b = s.openBucket(at)
		*slot = b
	}
	b.fns = append(b.fns, fn)
	s.pending++
}

func (s *Sim) openBucket(at Time) *bucket {
	var b *bucket
	if n := len(s.free); n > 0 {
		b = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		b = &bucket{}
	}
	b.at = at
	s.opened++
	s.pushInstant(instant{at: at, opened: s.opened, b: b})
	return b
}

func (s *Sim) pushInstant(e instant) {
	h := append(s.heap, e)
	s.heap = h
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

// popInstant removes the heap's front entry.
func (s *Sim) popInstant() {
	h := s.heap
	n := len(h) - 1
	e := h[n]
	h[n] = instant{}
	h = h[:n]
	s.heap = h
	if n == 0 {
		return
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
}

// Step executes the next event; false when the queue is empty.
//
// The event's slot is cleared before it runs, so the queue keeps no
// closure it has handed out, and a bucket whose last event this is
// retires first: an event the handler schedules for now opens a new
// bucket behind it.
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	b := s.heap[0].b
	fn := b.fns[b.head]
	b.fns[b.head] = nil
	b.head++
	s.now = b.at
	if b.head == len(b.fns) {
		s.popInstant()
		b.at, b.fns, b.head, b.block = -1, b.fns[:0], 0, nil
		s.free = append(s.free, b)
	}
	s.pending--
	fn()
	return true
}

// RunUntil processes events until the virtual clock reaches t (events at
// exactly t still run) or the queue empties.
func (s *Sim) RunUntil(t Time) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
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
		if len(s.heap) == 0 || s.heap[0].at > limit {
			return false
		}
		s.Step()
	}
	return true
}

// Group drives a set of raft nodes that share one consensus group over
// the simulated network: each host is ticked every TickInterval, in the
// Sim's tick blocks, and its outbound messages are delivered to group
// members after a delay drawn from the group's Topology.
type Group struct {
	sim  *Sim
	name string
	// topo is the group's latency model (see topology.go): each
	// message's base delay and jitter come from its from→to link.
	topo *Topology

	// Jitter adds U(0, Jitter) to each delivery, on top of the
	// topology's own, so fault injection (chaos ActDelay) composes with
	// any topology.
	Jitter Duration
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
	// counts are milliseconds). It is read when a host joins (Add,
	// Restart, RestartFrom): a host keeps the period it joined with, so
	// set it before the hosts it is meant for.
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

	// free holds deliveries that have run, for the next messages.
	free []*delivery
}

// NewGroup creates a consensus group on sim whose messages are delayed
// by topo (Uniform(15*Millisecond, 0) is the paper's network), with rng
// for jitter and loss.
func NewGroup(sim *Sim, name string, topo *Topology, rng *rand.Rand) *Group {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Group{
		sim:          sim,
		name:         name,
		topo:         topo,
		TickInterval: Millisecond,
		rng:          rng,
		hosts:        make(map[uint64]*Host),
	}
}

// Name returns the group's label.
func (g *Group) Name() string { return g.name }

// Host is one raft member living in a Group: a raft.Loop on the virtual
// clock. The loop's inputs, Node and observers are the host's own; what
// the host adds is the simulator's — a place in a tick block, a crash
// flag, the group's network as the loop's Send, and a disk.
type Host struct {
	raft.Loop
	// Store is the host's disk. The group gives each host one that keeps
	// the last image in memory and never fails; a test swaps it for one
	// that does, or for a real file. (It shadows the loop's Store, which
	// is this one behind hostStore's crash.)
	Store raft.Store

	group *Group
	down  bool
	// every is the tick period the host joined with, and block holds its
	// next tick while it is up; Crash takes it out at once.
	every Duration
	block *tickBlock

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
	h.every = g.TickInterval
	g.sim.place(h)
	return h, nil
}

// Remove unregisters a host from the group: its ticks stop, no
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

// tickBlock is the ticks that run back to back at one instant, as one
// event. A host ticks every TickInterval as if it re-armed an event of
// its own after each tick (a tick chain, kept as the reference in
// tick_test.go): its tick for instant X goes to the end of what is
// scheduled for X at the moment it joins or ticks at X−every. When that
// end is a block already, the host joins it; otherwise it opens a new
// block there. So a block runs exactly the ticks the chains would have
// run between the same two other events, in the same order, and a
// message or timer scheduled for X between two hosts' places — a 1 ms
// link under a 1 ms tick — splits their block where it split their
// chains. Hosts of any group and any interval share blocks.
type tickBlock struct {
	sim   *Sim
	hosts []*Host
	next  int    // hosts[next:] are still to tick
	fire  func() // run, bound once: a block allocates nothing per tick
}

// place gives h its next tick, one TickInterval from now, at the end of
// what is scheduled for that instant so far.
func (s *Sim) place(h *Host) {
	at := s.now + Time(h.every)
	b := s.open[at&(openSlots-1)]
	if b == nil || b.at != at || b.block == nil || b.blockEnd != len(b.fns) {
		blk := s.newBlock()
		s.Schedule(h.every, blk.fire)
		b = s.open[at&(openSlots-1)]
		b.block, b.blockEnd = blk, len(b.fns)
	}
	b.block.hosts = append(b.block.hosts, h)
	h.block = b.block
}

func (s *Sim) newBlock() *tickBlock {
	if n := len(s.blocks); n > 0 {
		blk := s.blocks[n-1]
		s.blocks = s.blocks[:n-1]
		return blk
	}
	blk := &tickBlock{sim: s}
	blk.fire = blk.run
	return blk
}

// run ticks the block's hosts in order. Each takes its next place right
// after its tick, unless the tick crashed it or gave it a place already
// (it crashed and restarted inside its own tick).
func (blk *tickBlock) run() {
	for blk.next < len(blk.hosts) {
		h := blk.hosts[blk.next]
		blk.next++
		h.block = nil
		_ = h.Tick() // a store error has crashed the host
		if !h.down && h.block == nil {
			blk.sim.place(h)
		}
	}
	clear(blk.hosts)
	blk.hosts, blk.next = blk.hosts[:0], 0
	blk.sim.blocks = append(blk.sim.blocks, blk)
}

// unplace takes h out of the block that holds its next tick.
func (h *Host) unplace() {
	if blk := h.block; blk != nil {
		i := blk.next + slices.Index(blk.hosts[blk.next:], h)
		blk.hosts = slices.Delete(blk.hosts, i, i+1)
		h.block = nil
	}
}

// Crash stops the host: no more ticks, inbound messages dropped. State
// persisted before the crash survives (see Restart).
func (h *Host) Crash() {
	h.down = true
	h.unplace()
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
	h.every = h.group.TickInterval
	h.group.sim.place(h)
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
	delay := g.topo.SampleDelay(m.From, m.To, g.rng)
	if g.Jitter > 0 {
		delay += Duration(g.rng.Int63n(int64(g.Jitter)))
	}
	var d *delivery
	if n := len(g.free); n > 0 {
		d = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		d = &delivery{g: g}
		d.fire = d.run
	}
	d.m, d.delay = m, delay
	g.sim.Schedule(delay, d.fire)
}

// delivery is a message in flight. Its group reuses it once it has run,
// so a message allocates nothing once the group has had as many in
// flight before: the event is the delivery's fire, bound once.
type delivery struct {
	g     *Group
	m     raft.Message
	delay Duration
	fire  func()
}

// run hands the message to its destination. The delivery goes back to
// its group first, holding nothing of the message, so what the
// destination sends while it steps may reuse it.
func (d *delivery) run() {
	g, m, delay := d.g, d.m, d.delay
	d.m = raft.Message{}
	g.free = append(g.free, d)
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
}
