package transport

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/raft"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Tunables for the per-peer sender machinery. Raft tolerates message
// loss, so every bound here sheds load instead of blocking: a full
// queue drops the newest message, a dead peer's messages are dropped
// while its dial backs off, and the caller of Send never waits.
const (
	// senderQueueCap bounds each peer's outbound queue.
	senderQueueCap = 512
	// senderBatchBytes caps how many frame bytes one sender iteration
	// coalesces into a single conn.Write. Bursts (entry batches,
	// heartbeat fan-out behind a slow write) flush in one syscall
	// instead of one per message; the cap bounds the encode buffer a
	// sender goroutine can pin. Sized to swallow a full append burst of
	// large model-update entries (tens of 16 KB frames) in one write.
	senderBatchBytes = 1 << 20
	// dialTimeout caps one connection attempt. It only ever delays the
	// dead peer's own sender goroutine, never other peers or Send.
	dialTimeout = 500 * time.Millisecond
	// dialBackoffBase..dialBackoffCap bound the capped exponential
	// backoff between dial attempts to an unreachable peer.
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffCap  = time.Second
	// acceptBackoffBase..acceptBackoffCap pace retries after transient
	// Accept errors (e.g. EMFILE) instead of busy-spinning.
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffCap  = 500 * time.Millisecond
	// suspectAfterFailures / downAfterFailures are the consecutive
	// dial/write failure counts that open the circuit.
	suspectAfterFailures = 1
	downAfterFailures    = 3
)

// circuitState is a peer connection's health as seen by its sender:
// Up (connected or never tried), Suspect (first failures), Down
// (persistently unreachable), Probing (Down, re-dial in flight).
type circuitState int32

// Circuit states in escalation order.
const (
	circuitUp circuitState = iota
	circuitSuspect
	circuitDown
	circuitProbing
)

// String returns the lowercase state name.
func (s circuitState) String() string {
	switch s {
	case circuitUp:
		return "up"
	case circuitSuspect:
		return "suspect"
	case circuitDown:
		return "down"
	case circuitProbing:
		return "probing"
	default:
		return "unknown"
	}
}

// PeerCircuit is one peer's sender status, for /debug/health.
type PeerCircuit struct {
	Peer     uint64 `json:"peer"`
	State    string `json:"state"`
	QueueLen int    `json:"queue_len"`
	Drops    int64  `json:"drops"`
}

// raftTel holds pre-resolved telemetry handles; the zero value (all
// nil) is a valid no-op set.
type raftTel struct {
	msgsSent     *telemetry.Counter
	bytesSent    *telemetry.Counter
	msgsReceived *telemetry.Counter
	msgsDropped  *telemetry.Counter
	dialFailures *telemetry.Counter
	circuitDowns *telemetry.Counter
}

// RaftTCP moves raft.Messages between real processes over TCP in the
// wire codec's length-prefixed binary frames (internal/wire) — the
// real-time counterpart of the discrete-event simulator, used by
// cmd/p2pfl-node. Each peer gets its own sender goroutine with a
// bounded outbound queue, so Send never blocks and a dead peer's dial
// timeout cannot head-of-line block traffic to healthy peers. Dials
// back off exponentially (capped, deterministically jittered) and each
// peer carries a circuit state (up → suspect → down → probing) exposed
// for the health layer. Inbound messages fan into a single receive
// channel; per-message byte counts are exact frame sizes. Frames are
// stateless (no gob-style per-stream type preamble), so the first
// message after a reconnect costs exactly as many bytes as any other,
// and queued bursts coalesce into a single write without any framing
// ambiguity at the receiver.
type RaftTCP struct {
	id uint64

	mu      sync.Mutex
	addrs   map[uint64]string
	senders map[uint64]*peerSender
	inbound map[net.Conn]struct{}
	closed  bool

	ln        net.Listener
	recvCh    chan raft.Message
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	counter  *Counter
	tel      atomic.Pointer[raftTel]
	activity atomic.Pointer[func(peer uint64)]
}

// NewRaftTCP starts a transport listening on addrs[id]. addrs maps every
// node ID (including this one) to host:port.
func NewRaftTCP(id uint64, addrs map[uint64]string, counter *Counter) (*RaftTCP, error) {
	self, ok := addrs[id]
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %d", id)
	}
	ln, err := net.Listen("tcp", self)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", self, err)
	}
	if counter == nil {
		counter = NewCounter()
	}
	t := &RaftTCP{
		id:      id,
		addrs:   make(map[uint64]string, len(addrs)),
		senders: make(map[uint64]*peerSender),
		inbound: make(map[net.Conn]struct{}),
		ln:      ln,
		recvCh:  make(chan raft.Message, 1024),
		done:    make(chan struct{}),
		counter: counter,
	}
	t.tel.Store(&raftTel{})
	for k, v := range addrs {
		t.addrs[k] = v
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (useful when the
// configured address had port 0).
func (t *RaftTCP) Addr() string { return t.ln.Addr().String() }

// Recv returns the channel of inbound messages.
func (t *RaftTCP) Recv() <-chan raft.Message { return t.recvCh }

// SetTelemetry wires the transport into a registry, resolving the
// transport/raft_* counters once. A nil registry resets to no-op.
func (t *RaftTCP) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		t.tel.Store(&raftTel{})
		return
	}
	t.tel.Store(&raftTel{
		msgsSent:     reg.Counter("transport/raft_msgs_sent"),
		bytesSent:    reg.Counter("transport/raft_bytes_sent"),
		msgsReceived: reg.Counter("transport/raft_msgs_received"),
		msgsDropped:  reg.Counter("transport/raft_msgs_dropped"),
		dialFailures: reg.Counter("transport/raft_dial_failures"),
		circuitDowns: reg.Counter("transport/raft_circuit_downs"),
	})
}

// SetActivityFunc installs a callback invoked (from the read goroutines)
// with the sender id of every decoded inbound message. The health
// detector hangs off this: message arrival is proof of life.
func (t *RaftTCP) SetActivityFunc(fn func(peer uint64)) {
	if fn == nil {
		t.activity.Store(nil)
		return
	}
	t.activity.Store(&fn)
}

func (t *RaftTCP) acceptLoop() {
	defer t.wg.Done()
	backoff := acceptBackoffBase
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient error (EMFILE, ECONNABORTED, ...): back off with a
			// capped doubling delay instead of spinning on Accept.
			timer := time.NewTimer(backoff)
			select {
			case <-t.done:
				timer.Stop()
				return
			case <-timer.C:
			}
			if backoff *= 2; backoff > acceptBackoffCap {
				backoff = acceptBackoffCap
			}
			continue
		}
		backoff = acceptBackoffBase
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *RaftTCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	t.inbound[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var scratch []byte // payload read buffer, reused frame to frame
	for {
		var m raft.Message
		var err error
		if m, scratch, err = wire.ReadRaftFrame(br, scratch); err != nil {
			return
		}
		t.tel.Load().msgsReceived.Inc()
		if fn := t.activity.Load(); fn != nil {
			(*fn)(m.From)
		}
		select {
		case t.recvCh <- m:
		case <-t.done:
			return
		}
	}
}

// Send hands m to the destination peer's sender goroutine and returns
// immediately. It never blocks: a full queue drops the message (counted
// in telemetry — raft tolerates loss and retries). The only error is an
// unknown destination.
func (t *RaftTCP) Send(m raft.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport: closed")
	}
	addr, ok := t.addrs[m.To]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: no address for node %d", m.To)
	}
	s, ok := t.senders[m.To]
	if !ok {
		s = &peerSender{t: t, id: m.To, addr: addr, ch: make(chan raft.Message, senderQueueCap)}
		t.senders[m.To] = s
		t.wg.Add(1)
		go s.loop()
	}
	t.mu.Unlock()
	select {
	case s.ch <- m:
	default:
		s.drop()
	}
	return nil
}

// PeerStates returns every active sender's status in ascending peer-id
// order, for the /debug/health endpoint.
func (t *RaftTCP) PeerStates() []PeerCircuit {
	t.mu.Lock()
	out := make([]PeerCircuit, 0, len(t.senders))
	for id, s := range t.senders {
		out = append(out, PeerCircuit{
			Peer:     id,
			State:    circuitState(s.state.Load()).String(),
			QueueLen: len(s.ch),
			Drops:    s.drops.Load(),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Close shuts the listener, sender goroutines and inbound connections
// down. It is idempotent.
func (t *RaftTCP) Close() error {
	var err error
	t.closeOnce.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		close(t.done)
		err = t.ln.Close()
		// Unblock readLoops parked in Decode on accepted connections;
		// sender loops see done and close their own conns.
		t.mu.Lock()
		for c := range t.inbound {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
	})
	return err
}

// peerSender owns all traffic toward one peer: a bounded queue drained
// by a single goroutine that dials, encodes and writes. Everything
// slow — dialing a dead host, a stalled TCP window — happens here, on
// this peer's goroutine only.
type peerSender struct {
	t     *RaftTCP
	id    uint64
	addr  string
	ch    chan raft.Message
	state atomic.Int32 // circuitState
	drops atomic.Int64
}

func (s *peerSender) drop() {
	s.drops.Add(1)
	s.t.tel.Load().msgsDropped.Inc()
}

func (s *peerSender) setState(st circuitState) {
	if circuitState(s.state.Swap(int32(st))) != st && st == circuitDown {
		s.t.tel.Load().circuitDowns.Inc()
	}
}

// onFailure escalates the circuit after a failed dial or write.
func (s *peerSender) onFailure(failures int) {
	s.t.tel.Load().dialFailures.Inc()
	switch {
	case failures >= downAfterFailures:
		s.setState(circuitDown)
	case failures >= suspectAfterFailures:
		s.setState(circuitSuspect)
	}
}

func (s *peerSender) loop() {
	defer s.t.wg.Done()
	var (
		buf      []byte // frame encode buffer, reused for every write
		conn     net.Conn
		failures int
		nextDial time.Time
	)
	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer closeConn()
	for {
		select {
		case <-s.t.done:
			return
		case m := <-s.ch:
			if conn == nil {
				if time.Now().Before(nextDial) {
					s.drop() // still backing off: shed instead of blocking the queue
					continue
				}
				if failures >= downAfterFailures {
					s.setState(circuitProbing)
				}
				c, err := net.DialTimeout("tcp", s.addr, dialTimeout)
				if err != nil {
					failures++
					s.onFailure(failures)
					nextDial = time.Now().Add(backoffFor(s.id, failures))
					s.drop()
					continue
				}
				conn = c
				failures = 0
				nextDial = time.Time{}
				s.setState(circuitUp)
			}
			// Record each exact frame size BEFORE the bytes hit the wire,
			// so a receiver can never observe a message the sender's counter
			// has not yet accounted for.
			tel := s.t.tel.Load()
			record := func(m raft.Message, frameBytes int64) {
				s.t.counter.Record("raft/"+m.Type.String(), frameBytes)
				tel.msgsSent.Inc()
				tel.bytesSent.Add(frameBytes)
			}
			buf = wire.AppendRaftFrame(buf[:0], m)
			record(m, int64(len(buf)))
			// Coalesce whatever else is already queued into the same
			// write: frames are stateless, so back-to-back frames in one
			// syscall are indistinguishable from separate writes to the
			// receiver, and a burst costs one syscall instead of one per
			// message.
		coalesce:
			for len(buf) < senderBatchBytes {
				select {
				case m2 := <-s.ch:
					start := len(buf)
					buf = wire.AppendRaftFrame(buf, m2)
					record(m2, int64(len(buf)-start))
				default:
					break coalesce
				}
			}
			if _, err := conn.Write(buf); err != nil {
				closeConn()
				failures++
				s.onFailure(failures)
				nextDial = time.Now().Add(backoffFor(s.id, failures))
				// Counted but lost in transit — raft retries.
			}
		}
	}
}

// backoffFor returns the capped exponential delay before dial attempt
// failures+1, jittered ±25% by a hash of (peer, failures) — fully
// deterministic, so a test replaying the same failure sequence sees the
// same schedule, while distinct peers still desynchronize.
func backoffFor(peer uint64, failures int) time.Duration {
	d := dialBackoffBase
	for i := 1; i < failures && d < dialBackoffCap; i++ {
		d *= 2
	}
	if d > dialBackoffCap {
		d = dialBackoffCap
	}
	h := peer*0x9E3779B97F4A7C15 + uint64(failures)*0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 29
	frac := int64(h%513) - 256 // uniform-ish in [-256, 256]
	return d + time.Duration(int64(d)*frac/1024)
}
