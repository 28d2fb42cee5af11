package transport

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/wire"
)

// Compile-time checks: both fabrics implement Network.
var (
	_ Network = (*Mesh)(nil)
	_ Network = (*TCPMesh)(nil)
)

// TCPMesh is a Network whose messages travel over real TCP sockets (one
// loopback listener per peer) in wire-codec frames. Send is synchronous:
// it blocks until the receiver has decoded the message into its inbox
// and acknowledged it, preserving the round-synchronous semantics the
// SAC driver relies on.
//
// The protocol logic is identical to the in-memory Mesh; this fabric
// exists to demonstrate the aggregation running over an actual network
// stack (the paper's system used gRPC between layers). The traffic
// counter still records the paper's cost unit 8·dim per payload, so the
// closed-form checks hold over sockets too.
//
// A model vector makes one pass through user space in each direction:
// Send writes the words straight from msg.Payload (wire.MeshEncoder) and
// the receiver reads them straight into the []float64 it delivers
// (wire.MeshDecoder), taken from a bounded free list that Recycle
// refills. A delivered payload is the receiver's own copy, so unlike on
// a Mesh nothing the sender does afterwards changes it.
//
// All methods are safe for concurrent use, Send toward one destination
// included: every sender to a peer shares that peer's one cached
// connection, which carries a single frame at a time — write and ack
// wait happen under the connection's own lock, so frames never
// interleave and no sender can consume another's ack. Concurrent Sends
// to one peer are therefore serialized; Sends to different peers
// proceed in parallel.
type TCPMesh struct {
	mu        sync.Mutex
	n         int
	counter   *Counter
	crashed   []bool
	inboxes   [][]Message
	listeners []net.Listener
	addrs     []string

	conns []*tcpConn // one per destination peer, dialled on first use

	// free is the free list of receive vectors; see Recycle for its
	// bounds. maxVec is the longest payload delivered to an inbox so far,
	// out the vectors delivered and not yet recycled, outMax its high-water
	// mark, and fresh the receive vectors allocated because none on the
	// list fit.
	free        [][]float64
	maxVec      int
	out, outMax int
	fresh       int

	closed bool
	wg     sync.WaitGroup
}

// tcpConn is the cached outbound connection toward one peer. mu is held
// for a whole frame exchange (dial, write, ack wait); c itself is read
// and written under TCPMesh.mu, so Close can shut the socket under a
// blocked sender. Lock order: tcpConn.mu, then TCPMesh.mu.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn // nil until dialled and after a drop
	enc wire.MeshEncoder
	ack [1]byte
}

// minRecycle is the shortest vector, in elements, the free list keeps:
// below 64 KiB (metadata-sized payloads — recovery requests, digests) a
// fresh allocation is cheaper than a slot.
const minRecycle = 8 << 10

// NewTCPMesh creates a mesh of n peers listening on loopback with
// dynamic ports. Call Close when done.
func NewTCPMesh(n int, counter *Counter) (*TCPMesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: tcp mesh needs ≥ 1 peer")
	}
	if counter == nil {
		counter = NewCounter()
	}
	m := &TCPMesh{
		n:         n,
		counter:   counter,
		crashed:   make([]bool, n),
		inboxes:   make([][]Message, n),
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
		conns:     make([]*tcpConn, n),
	}
	for i := 0; i < n; i++ {
		m.conns[i] = &tcpConn{}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: tcp mesh listen: %w", err)
		}
		m.listeners[i] = ln
		m.addrs[i] = ln.Addr().String()
		m.wg.Add(1)
		go m.acceptLoop(i, ln)
	}
	return m, nil
}

func (m *TCPMesh) acceptLoop(peer int, ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go m.serveConn(peer, conn)
	}
}

func (m *TCPMesh) serveConn(peer int, conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	var dec wire.MeshDecoder
	ack := []byte{1}
	for {
		// A mesh socket carries mesh frames and nothing else: the decoder
		// refuses any other kind on its header, and the connection closes
		// without a byte of that frame's payload read or acknowledged.
		wm, err := dec.ReadFrame(br, m.getVec)
		if err != nil {
			// A free-list vector the frame did not fill goes back to the
			// list, never to an inbox.
			m.release(wm.Payload)
			return
		}
		payload := wm.Payload
		msg := Message{From: wm.From, To: wm.To, Kind: wm.Kind, ShareIdx: wm.ShareIdx, Payload: payload}
		m.mu.Lock()
		delivered := !m.crashed[peer]
		if delivered {
			m.inboxes[peer] = append(m.inboxes[peer], msg)
			m.maxVec = max(m.maxVec, len(payload))
			if len(payload) >= minRecycle {
				m.out++
				m.outMax = max(m.outMax, m.out)
			}
		}
		m.mu.Unlock()
		if !delivered {
			m.release(payload)
		}
		if _, err := conn.Write(ack); err != nil {
			return
		}
	}
}

// getVec takes a vector of capacity ≥ n off the free list, or returns
// nil when none fits (the decoder then allocates under its own bound).
func (m *TCPMesh) getVec(n int) []float64 {
	if n < minRecycle {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.free) - 1; i >= 0; i-- {
		if v := m.free[i]; cap(v) >= n {
			last := len(m.free) - 1
			m.free[i], m.free[last] = m.free[last], nil
			m.free = m.free[:last]
			return v
		}
	}
	m.fresh++
	return nil
}

// Recycle implements Network: the payload joins the free list the
// receive path draws its destination vectors from. The list is sized by
// what the callers have had outstanding: the mesh counts the vectors it
// has delivered to an inbox and not yet seen recycled, and keeps up to
// that count's high-water mark — (n−1)(n−k+1) for a SAC that folds its
// shares a contributor at a time, whatever n and k are — none longer
// than the longest payload this mesh has delivered. Anything beyond
// that, or shorter than minRecycle, is left to the garbage collector. A
// caller that drops drained payloads instead of recycling them raises
// the mark by as many, but the list still only ever holds what someone
// did recycle. In race builds the vector is poisoned first, so a caller
// that recycles a slice it still reads fails loudly instead of rarely.
func (m *TCPMesh) Recycle(payload []float64) {
	if cap(payload) < minRecycle {
		return
	}
	if poisonRecycled {
		payload = payload[:cap(payload)]
		for i := range payload {
			payload[i] = math.NaN()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.out = max(m.out-1, 0)
	m.keepLocked(payload)
}

// release puts a receive vector that never reached a caller — the frame
// broke off, or the peer had crashed — back on the free list.
func (m *TCPMesh) release(payload []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keepLocked(payload)
}

// keepLocked appends payload to the free list if Recycle's bounds allow.
func (m *TCPMesh) keepLocked(payload []float64) {
	payload = payload[:cap(payload)]
	if len(payload) >= minRecycle && len(payload) <= m.maxVec && len(m.free) < m.outMax {
		m.free = append(m.free, payload)
	}
}

// dropInboxLocked discards a crashed peer's undrained
// messages; their receive vectors go back on the free list.
func (m *TCPMesh) dropInboxLocked(peer int) {
	for _, msg := range m.inboxes[peer] {
		if len(msg.Payload) >= minRecycle {
			m.out--
			m.keepLocked(msg.Payload)
		}
	}
	m.inboxes[peer] = nil
}

// N implements Network.
func (m *TCPMesh) N() int { return m.n }

// Alive implements Network.
func (m *TCPMesh) Alive(peer int) bool {
	if peer < 0 || peer >= m.n {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.crashed[peer]
}

// AlivePeers implements Network.
func (m *TCPMesh) AlivePeers() []int {
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

// Crash implements Network: the peer's listener closes and its inbox is
// dropped.
func (m *TCPMesh) Crash(peer int) error {
	if peer < 0 || peer >= m.n {
		return fmt.Errorf("transport: peer %d out of [0,%d)", peer, m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed[peer] = true
	m.dropInboxLocked(peer)
	m.listeners[peer].Close()
	return nil
}

// closeLocked shuts the cached socket, unblocking any sender inside an
// exchange on it. Caller holds TCPMesh.mu.
func (c *tcpConn) closeLocked() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// Send implements Network with per-message acknowledgement.
func (m *TCPMesh) Send(msg Message) error {
	if msg.From < 0 || msg.From >= m.n || msg.To < 0 || msg.To >= m.n {
		return fmt.Errorf("transport: bad endpoints %d→%d", msg.From, msg.To)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("transport: tcp mesh closed")
	}
	if m.crashed[msg.From] {
		m.mu.Unlock()
		return fmt.Errorf("transport: %w: peer %d", ErrCrashed, msg.From)
	}
	toCrashed := m.crashed[msg.To]
	m.mu.Unlock()
	m.counter.Record(msg.Kind, msg.WireBytes())
	if toCrashed {
		// Bytes hit the wire toward a dead peer; nothing arrives.
		return nil
	}
	conn := m.conns[msg.To]
	conn.mu.Lock()
	defer conn.mu.Unlock()
	c, err := m.dial(conn, msg.To)
	if err != nil {
		// The receiver may have crashed between the check and the dial.
		if !m.Alive(msg.To) {
			return nil
		}
		return err
	}
	err = conn.enc.WriteFrame(c, wire.MeshMessage{
		From: msg.From, To: msg.To, Kind: msg.Kind, ShareIdx: msg.ShareIdx, Payload: msg.Payload,
	})
	op := "send"
	if err == nil {
		op = "ack"
		_, err = io.ReadFull(c, conn.ack[:])
	}
	if err != nil {
		m.dropConn(conn, c)
		if !m.Alive(msg.To) {
			return nil
		}
		return fmt.Errorf("transport: tcp %s: %w", op, err)
	}
	return nil
}

// dial returns conn's socket, connecting on first use. Caller holds
// conn.mu.
func (m *TCPMesh) dial(conn *tcpConn, to int) (net.Conn, error) {
	m.mu.Lock()
	c, addr := conn.c, m.addrs[to]
	m.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp dial %s: %w", addr, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		c.Close()
		return nil, fmt.Errorf("transport: tcp dial %s: mesh closed", addr)
	}
	conn.c = c
	return c, nil
}

// dropConn closes a socket that failed mid-exchange and forgets it, so
// the next Send redials.
func (m *TCPMesh) dropConn(conn *tcpConn, c net.Conn) {
	c.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	if conn.c == c {
		conn.c = nil
	}
}

// Drain implements Network.
func (m *TCPMesh) Drain(peer int) ([]Message, error) {
	if peer < 0 || peer >= m.n {
		return nil, fmt.Errorf("transport: peer %d out of [0,%d)", peer, m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.inboxes[peer]
	m.inboxes[peer] = nil
	return out, nil
}

// Close shuts all listeners and connections down.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, ln := range m.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, c := range m.conns {
		c.closeLocked()
	}
	m.mu.Unlock()
	m.wg.Wait()
	return nil
}
