// Package transport provides the message-passing substrate shared by the
// aggregation protocols: an in-memory mesh with exact byte accounting
// (used by the SAC driver and the two-layer system, and to cross-check
// the paper's closed-form communication-cost formulas), the same mesh over
// loopback TCP sockets (TCPMesh), and the raft transport real peers run on
// (RaftTCP, cmd/p2pfl-node). Everything that crosses a socket travels in
// internal/wire frames.
package transport

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// Message is one protocol message between peers. Payload is a flat vector
// of model weights (or shares/subtotals thereof); its wire size is
// 8·len(Payload) bytes, matching the paper's cost unit |w| = bytes of the
// weight tensor.
type Message struct {
	From, To int
	Kind     string
	ShareIdx int
	Payload  []float64
}

// WireBytes returns the accounted size of the message payload.
func (m Message) WireBytes() int64 { return int64(8 * len(m.Payload)) }

// Counter accumulates traffic statistics, categorized by message kind.
// It is safe for concurrent use.
type Counter struct {
	mu    sync.Mutex
	bytes map[string]int64
	msgs  map[string]int64
}

// NewCounter creates an empty traffic counter.
func NewCounter() *Counter {
	return &Counter{bytes: make(map[string]int64), msgs: make(map[string]int64)}
}

// Record adds one message of the given kind and size.
func (c *Counter) Record(kind string, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes[kind] += bytes
	c.msgs[kind]++
}

// Bytes returns the byte total for one kind.
func (c *Counter) Bytes(kind string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes[kind]
}

// Messages returns the message count for one kind.
func (c *Counter) Messages(kind string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs[kind]
}

// TotalBytes returns the byte total across all kinds.
func (c *Counter) TotalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, b := range c.bytes {
		t += b
	}
	return t
}

// TotalMessages returns the message total across all kinds.
func (c *Counter) TotalMessages() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, n := range c.msgs {
		t += n
	}
	return t
}

// Kinds returns the recorded kinds in sorted order.
func (c *Counter) Kinds() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.bytes))
	for k := range c.bytes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Network is the fully connected peer fabric the round-synchronous SAC
// driver runs on: a protocol phase Sends messages, then each peer Drains
// its inbox. Send must be synchronous — a message is in the receiver's
// inbox (or dropped at a crashed receiver) when Send returns. Mesh is
// the in-memory implementation; TCPMesh moves the same messages over
// real sockets.
//
// Payload ownership: Send only reads msg.Payload and the sender keeps
// it. A payload returned by Drain belongs to the receiver, for as long
// as it likes, until it passes it to Recycle; from then on the fabric
// may overwrite the slice at any moment, so the caller must not read it
// (or any slice of it) again. Recycle is optional — an unrecycled
// payload is ordinary garbage — but a payload may be recycled only
// once, and only on the network it was drained from.
//
// "Belongs to the receiver" is as strong as the fabric makes it. A
// TCPMesh payload is the receiver's own copy. A Mesh payload is the very
// slice the sender passed to Send, so it stays valid only until the
// sender next writes that memory — for a SAC share, which points into
// the contributor's share block, until the next contributor's turn (see
// sac.Scratch). A receiver that keeps a drained payload past the
// protocol step that delivered it must copy it.
type Network interface {
	// N returns the number of peers.
	N() int
	// Alive reports whether the peer has not crashed.
	Alive(peer int) bool
	// AlivePeers lists non-crashed peers in order.
	AlivePeers() []int
	// Crash marks a peer failed: it can no longer send, and messages to
	// it are dropped (after byte accounting — the sender cannot know).
	Crash(peer int) error
	// Send delivers a message to the destination peer's inbox.
	Send(Message) error
	// Drain removes and returns all messages queued for peer.
	Drain(peer int) ([]Message, error)
	// Recycle gives a drained payload back to the fabric once the
	// receiver has finished reading it (see the ownership rules above).
	Recycle(payload []float64)
}

// Mesh is an in-memory, fully connected network of n peers with per-peer
// inboxes, crash simulation and byte accounting. It is the substrate for
// the round-synchronous SAC driver: a protocol phase Sends messages,
// then each peer Drains its inbox. All methods are safe for concurrent
// use (one lock guards the whole mesh); SetTelemetry and Observe are
// configuration — call them between rounds.
type Mesh struct {
	mu       sync.Mutex
	n        int
	inboxes  [][]Message
	crashed  []bool
	counter  *Counter
	observer func(Message)
	tel      meshTel
}

// meshTel holds the mesh's pre-resolved telemetry handles: aggregate
// send/receive/drop counters plus per-sender message and byte counts.
// All handles are nil (no-op) until SetTelemetry installs a registry.
type meshTel struct {
	msgsSent     *telemetry.Counter
	bytesSent    *telemetry.Counter
	msgsReceived *telemetry.Counter
	msgsDropped  *telemetry.Counter
	peerMsgs     []*telemetry.Counter // indexed by sender
	peerBytes    []*telemetry.Counter
}

// SetTelemetry wires the mesh into a registry, resolving aggregate
// transport/* counters and per-peer transport/peer<i>/* counters once
// up front. A nil registry resets the mesh to no-op instrumentation.
func (m *Mesh) SetTelemetry(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.tel = meshTel{}
		return
	}
	t := meshTel{
		msgsSent:     reg.Counter("transport/msgs_sent"),
		bytesSent:    reg.Counter("transport/bytes_sent"),
		msgsReceived: reg.Counter("transport/msgs_received"),
		msgsDropped:  reg.Counter("transport/msgs_dropped"),
		peerMsgs:     make([]*telemetry.Counter, m.n),
		peerBytes:    make([]*telemetry.Counter, m.n),
	}
	for i := 0; i < m.n; i++ {
		t.peerMsgs[i] = reg.Counter(fmt.Sprintf("transport/peer%d/msgs_sent", i))
		t.peerBytes[i] = reg.Counter(fmt.Sprintf("transport/peer%d/bytes_sent", i))
	}
	m.tel = t
}

// NewMesh creates a mesh of n peers recording traffic into counter
// (which may be shared across meshes; nil allocates a private one).
func NewMesh(n int, counter *Counter) *Mesh {
	if counter == nil {
		counter = NewCounter()
	}
	return &Mesh{
		n:       n,
		inboxes: make([][]Message, n),
		crashed: make([]bool, n),
		counter: counter,
	}
}

// N returns the number of peers.
func (m *Mesh) N() int { return m.n }

// Counter returns the mesh's traffic counter.
func (m *Mesh) Counter() *Counter { return m.counter }

// Observe installs a callback invoked (under the mesh lock) for every
// message accepted by Send, including messages to crashed receivers.
// Protocol audits — e.g. verifying what an honest-but-curious leader
// gets to see — use this to capture traffic without altering it. The
// observed payload is the sender's memory, lent for the duration of the
// callback: a SAC round overwrites a share's bytes at the sender's
// next turn, so an observer copies whatever it keeps.
func (m *Mesh) Observe(fn func(Message)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observer = fn
}

// Crash marks a peer as crashed: it can no longer send, and messages to
// it are dropped (but still counted as sent — the sender cannot know the
// receiver is down, so the bytes hit the wire).
func (m *Mesh) Crash(peer int) error {
	if err := m.check(peer); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed[peer] = true
	if q := len(m.inboxes[peer]); q > 0 {
		m.tel.msgsDropped.Add(int64(q))
	}
	m.inboxes[peer] = nil
	return nil
}

// Alive reports whether a peer has not crashed.
func (m *Mesh) Alive(peer int) bool {
	if peer < 0 || peer >= m.n {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.crashed[peer]
}

// AlivePeers returns the IDs of all non-crashed peers in order.
func (m *Mesh) AlivePeers() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i, c := range m.crashed {
		if !c {
			out = append(out, i)
		}
	}
	return out
}

// Send delivers msg to its destination's inbox. A crashed sender returns
// ErrCrashed; a crashed receiver silently drops the message after the
// bytes are counted.
func (m *Mesh) Send(msg Message) error {
	if err := m.check(msg.From); err != nil {
		return err
	}
	if err := m.check(msg.To); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed[msg.From] {
		return fmt.Errorf("transport: %w: peer %d", ErrCrashed, msg.From)
	}
	wireBytes := msg.WireBytes()
	m.counter.Record(msg.Kind, wireBytes)
	m.tel.msgsSent.Inc()
	m.tel.bytesSent.Add(wireBytes)
	if m.tel.peerMsgs != nil {
		m.tel.peerMsgs[msg.From].Inc()
		m.tel.peerBytes[msg.From].Add(wireBytes)
	}
	if m.observer != nil {
		m.observer(msg)
	}
	if m.crashed[msg.To] {
		m.tel.msgsDropped.Inc()
		return nil
	}
	m.inboxes[msg.To] = append(m.inboxes[msg.To], msg)
	return nil
}

// Drain removes and returns all messages queued for peer.
func (m *Mesh) Drain(peer int) ([]Message, error) {
	if err := m.check(peer); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.inboxes[peer]
	m.inboxes[peer] = nil
	if len(out) > 0 {
		m.tel.msgsReceived.Add(int64(len(out)))
	}
	return out, nil
}

// Recycle implements Network as a no-op, and must stay one: a Mesh
// payload is the very slice the sender passed to Send (SAC shares alias
// the sender's share block, an announced result aliases Result.Avg), so
// there is no receive buffer to take back and reusing the slice would
// corrupt the sender.
func (m *Mesh) Recycle([]float64) {}

func (m *Mesh) check(peer int) error {
	if peer < 0 || peer >= m.n {
		return fmt.Errorf("transport: peer %d out of [0,%d)", peer, m.n)
	}
	return nil
}

// ErrCrashed is returned when a crashed peer attempts to send.
var ErrCrashed = errCrashed{}

type errCrashed struct{}

func (errCrashed) Error() string { return "peer crashed" }
