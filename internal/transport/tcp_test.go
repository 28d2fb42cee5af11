package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raft"
	"repro/internal/wire"
)

// newPair starts two transports on loopback with dynamic ports.
func newPair(t *testing.T) (*RaftTCP, *RaftTCP) {
	t.Helper()
	// Bootstrap with port 0, then exchange real addresses.
	t1, err := NewRaftTCP(1, map[uint64]string{1: "127.0.0.1:0", 2: "127.0.0.1:1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewRaftTCP(2, map[uint64]string{1: t1.Addr(), 2: "127.0.0.1:0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1.SetAddr(2, t2.Addr())
	t.Cleanup(func() {
		t1.Close()
		t2.Close()
	})
	return t1, t2
}

func recvWithTimeout(t *testing.T, ch <-chan raft.Message) raft.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
		return raft.Message{}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	t1, t2 := newPair(t)
	msg := raft.Message{
		Type: raft.MsgAppend, From: 1, To: 2, Term: 7,
		Entries: []raft.Entry{{Index: 1, Term: 7, Data: []byte("hello")}},
		Commit:  1,
	}
	if err := t1.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := recvWithTimeout(t, t2.Recv())
	if got.Term != 7 || got.From != 1 || len(got.Entries) != 1 || string(got.Entries[0].Data) != "hello" {
		t.Fatalf("got %+v", got)
	}
	// And the reverse direction.
	if err := t2.Send(raft.Message{Type: raft.MsgAppendResponse, From: 2, To: 1, Term: 7, Match: 1}); err != nil {
		t.Fatal(err)
	}
	back := recvWithTimeout(t, t1.Recv())
	if back.Match != 1 || back.From != 2 {
		t.Fatalf("got %+v", back)
	}
}

func TestTCPManyMessages(t *testing.T) {
	t1, t2 := newPair(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := t1.Send(raft.Message{Type: raft.MsgVoteRequest, From: 1, To: 2, Term: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvWithTimeout(t, t2.Recv())
		if m.Term != uint64(i) {
			t.Fatalf("message %d: term %d (reordered?)", i, m.Term)
		}
	}
	if t1.Counter().TotalMessages() != n {
		t.Fatalf("counted %d messages", t1.Counter().TotalMessages())
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	t1, _ := newPair(t)
	if err := t1.Send(raft.Message{To: 99}); err == nil {
		t.Fatal("want error for unknown peer")
	}
}

func TestTCPDialFailure(t *testing.T) {
	tr, err := NewRaftTCP(1, map[uint64]string{1: "127.0.0.1:0", 2: "127.0.0.1:1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Port 1 is almost certainly closed. Sends are asynchronous: they
	// must not error or block; instead the peer's circuit opens after
	// repeated dial failures and the dropped messages are counted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			st, _ := tr.PeerState(2)
			t.Fatalf("circuit never opened; state %v", st)
		}
		if err := tr.Send(raft.Message{To: 2}); err != nil {
			t.Fatal(err)
		}
		if st, ok := tr.PeerState(2); ok && (st == circuitDown || st == circuitProbing) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	states := tr.PeerStates()
	if len(states) != 1 || states[0].Peer != 2 {
		t.Fatalf("PeerStates = %+v", states)
	}
	if states[0].Drops == 0 {
		t.Fatal("expected dropped messages toward the dead peer")
	}
}

// TestTCPHeadOfLineBlocking is the regression test for the synchronous
// transport's worst failure mode: one dark peer stalling traffic to
// everyone else. Peer 3 accepts connections but never reads, so the
// sender's conn.Write blocks once kernel buffers fill — under the old
// design that happened while holding the transport-wide mutex, freezing
// sends to the healthy peer 2. With per-peer senders, only peer 3's
// goroutine stalls: Send stays non-blocking and healthy round-trips
// stay fast.
func TestTCPHeadOfLineBlocking(t *testing.T) {
	t1, t2 := newPair(t)
	// Dark peer: a raw listener that accepts and then ignores the conn.
	dark, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dark.Close()
	var darkConns []net.Conn
	var darkMu sync.Mutex
	go func() {
		for {
			c, err := dark.Accept()
			if err != nil {
				return
			}
			darkMu.Lock()
			darkConns = append(darkConns, c)
			darkMu.Unlock()
		}
	}()
	defer func() {
		darkMu.Lock()
		for _, c := range darkConns {
			c.Close()
		}
		darkMu.Unlock()
	}()
	t1.SetAddr(3, dark.Addr().String())

	// Saturate the path to the dark peer: big entries fill the kernel
	// buffers within a few messages, wedging peer 3's sender in Write.
	big := raft.Message{
		Type: raft.MsgAppend, From: 1, To: 3,
		Entries: []raft.Entry{{Data: make([]byte, 64<<10)}},
	}
	start := time.Now()
	for i := 0; i < 600; i++ {
		if err := t1.Send(big); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("600 sends to a wedged peer took %v; Send must not block", d)
	}
	// The bounded queue must be shedding, not growing without bound.
	states := t1.PeerStates()
	var darkDrops int64
	for _, s := range states {
		if s.Peer == 3 {
			darkDrops = s.Drops
			if s.QueueLen > 512 {
				t.Fatalf("queue exceeded its bound: %+v", s)
			}
		}
	}
	if darkDrops == 0 {
		t.Fatalf("expected queue-overflow drops toward the wedged peer; states %+v", states)
	}

	// Healthy round-trips while peer 3 is wedged: each must complete
	// promptly (they take microseconds; seconds would mean HOL blocking).
	for i := 0; i < 50; i++ {
		sendStart := time.Now()
		if err := t1.Send(raft.Message{Type: raft.MsgVoteRequest, From: 1, To: 2, Term: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(sendStart); d > 250*time.Millisecond {
			t.Fatalf("Send to healthy peer took %v while another peer is dark", d)
		}
		m := recvWithTimeout(t, t2.Recv())
		if m.Term != uint64(i) {
			t.Fatalf("round %d: got term %d", i, m.Term)
		}
	}
}

// TestTCPExactByteAccounting checks the counter records real encoded
// sizes: the transport's byte total must equal the sum of the wire
// codec's frame sizes for the same messages — computable without
// encoding, which is what makes exact accounting free.
func TestTCPExactByteAccounting(t *testing.T) {
	t1, t2 := newPair(t)
	msgs := []raft.Message{
		{Type: raft.MsgVoteRequest, From: 1, To: 2, Term: 3},
		{Type: raft.MsgAppend, From: 1, To: 2, Term: 3,
			Entries: []raft.Entry{{Index: 1, Term: 3, Data: []byte("weights")}}, Commit: 1},
		{Type: raft.MsgAppend, From: 1, To: 2, Term: 4,
			Entries: []raft.Entry{{Index: 2, Term: 4}, {Index: 3, Term: 4, Data: make([]byte, 100)}}},
	}
	var want int64
	for _, m := range msgs {
		if err := t1.Send(m); err != nil {
			t.Fatal(err)
		}
		want += int64(wire.RaftFrameSize(m))
	}
	for range msgs {
		recvWithTimeout(t, t2.Recv())
	}
	if got := t1.Counter().TotalBytes(); got != want {
		t.Fatalf("counted %d bytes, want exact wire frame size %d", got, want)
	}
	if got := t1.Counter().TotalMessages(); got != int64(len(msgs)) {
		t.Fatalf("counted %d messages, want %d", got, len(msgs))
	}
}

// TestTCPReconnectNoStreamWarmupTax is the regression contract for the
// reconnect cost fix: with per-connection gob encoders, every redial
// resent the stream's type preamble, so the first message after a
// reconnect cost more bytes than steady state. Wire frames are
// stateless — the first frame on a fresh connection must cost exactly
// as many bytes as the same message at steady state.
func TestTCPReconnectNoStreamWarmupTax(t *testing.T) {
	t1, t2 := newPair(t)
	msg := raft.Message{Type: raft.MsgAppend, From: 1, To: 2, Term: 3,
		Entries: []raft.Entry{{Index: 1, Term: 3, Data: []byte("weights")}}, Commit: 1}

	perMessage := func() int64 {
		before := t1.Counter().TotalBytes()
		if err := t1.Send(msg); err != nil {
			t.Fatal(err)
		}
		recvWithTimeout(t, t2.Recv())
		return t1.Counter().TotalBytes() - before
	}

	first := perMessage() // first message ever: fresh connection
	var steady int64
	for i := 0; i < 5; i++ {
		steady = perMessage()
		if steady != first {
			t.Fatalf("steady-state message cost %d bytes, first message cost %d", steady, first)
		}
	}

	// Restart peer 2 so the sender must redial, then compare the first
	// post-reconnect message's bytes against steady state.
	addr2 := t2.Addr()
	t2.Close()
	t2b, err := NewRaftTCP(2, map[uint64]string{1: t1.Addr(), 2: addr2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()

	// The stale connection may eat one send; poll until a message gets
	// through, then measure the NEXT delivered message cleanly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after reconnect")
		}
		if err := t1.Send(msg); err != nil {
			t.Fatal(err)
		}
		received := false
		select {
		case <-t2b.Recv():
			received = true
		case <-time.After(100 * time.Millisecond):
		}
		if received {
			break
		}
	}
	before := t1.Counter().TotalBytes()
	if err := t1.Send(msg); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, t2b.Recv())
	if got := t1.Counter().TotalBytes() - before; got != steady {
		t.Fatalf("first message after reconnect cost %d bytes, steady state costs %d (stream warmup tax)", got, steady)
	}
}

// TestTCPMeshSendToCrashedPeer covers the synchronous mesh's crashed
// paths: sends toward a crashed receiver are silently dropped (bytes
// still counted — the sender can't know), sends from a crashed peer
// fail with errCrashed, and the crashed peer's inbox stays empty.
func TestTCPMeshSendToCrashedPeer(t *testing.T) {
	m, err := NewTCPMesh(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Send(Message{From: 0, To: 2, Kind: "pre", Payload: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(2); err != nil {
		t.Fatal(err)
	}
	before := m.Counter().TotalBytes()
	if err := m.Send(Message{From: 0, To: 2, Kind: "post", Payload: []float64{1, 2}}); err != nil {
		t.Fatalf("send to crashed peer must drop silently, got %v", err)
	}
	if got := m.Counter().TotalBytes(); got != before+16 {
		t.Fatalf("bytes to crashed peer not counted: %d → %d", before, got)
	}
	if msgs, _ := m.Drain(2); len(msgs) != 0 {
		t.Fatalf("crashed peer's inbox should be empty, got %d", len(msgs))
	}
	if err := m.Send(Message{From: 2, To: 0, Kind: "x"}); !errors.Is(err, errCrashed) {
		t.Fatalf("send from crashed peer: got %v, want ErrCrashed", err)
	}
	// Healthy pair still works end to end.
	if err := m.Send(Message{From: 0, To: 1, Kind: "ok", Payload: []float64{3}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if msgs, _ := m.Drain(1); len(msgs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy peer never received")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	t1, t2 := newPair(t)
	if err := t1.Send(raft.Message{Type: raft.MsgVoteRequest, From: 1, To: 2, Term: 1}); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, t2.Recv())
	// Restart peer 2 on its address, as a daemon restarted with the same
	// -peers list does.
	addr2 := t2.Addr()
	t2.Close()
	t2b, err := NewRaftTCP(2, map[uint64]string{1: t1.Addr(), 2: addr2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	// The first send may fail on the stale connection; poll the
	// send-then-receive condition under a deadline (mimicking the raft
	// driver's retries) instead of sleeping a fixed backoff and hoping.
	deadline := time.Now().Add(10 * time.Second)
	delivered := false
	for !delivered {
		if time.Now().After(deadline) {
			t.Fatal("message not delivered after reconnect")
		}
		if err := t1.Send(raft.Message{Type: raft.MsgVoteRequest, From: 1, To: 2, Term: 2}); err != nil {
			time.Sleep(time.Millisecond) // redial immediately after a short breather
			continue
		}
		select {
		case m := <-t2b.Recv():
			if m.Term == 2 {
				delivered = true
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Full integration: three real raft nodes over loopback TCP elect a
// leader and replicate an entry, driven by real-time tickers.
func TestTCPRaftCluster(t *testing.T) {
	ids := []uint64{1, 2, 3}
	addrs := map[uint64]string{}
	transports := map[uint64]*RaftTCP{}
	// Listen first with dynamic ports.
	for _, id := range ids {
		boot := map[uint64]string{}
		for _, j := range ids {
			boot[j] = "127.0.0.1:1" // placeholder
		}
		boot[id] = "127.0.0.1:0"
		tr, err := NewRaftTCP(id, boot, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		transports[id] = tr
		addrs[id] = tr.Addr()
	}
	for _, tr := range transports {
		for id, a := range addrs {
			tr.SetAddr(id, a)
		}
	}

	// Each node is owned by exactly one driver goroutine (raft.Node is
	// not thread-safe); the main goroutine communicates via channels and
	// per-node leadership flags.
	stop := make(chan struct{})
	committed := make(chan string, 16)
	isLeader := map[uint64]*atomic.Bool{}
	proposeCh := map[uint64]chan []byte{}
	for _, id := range ids {
		isLeader[id] = &atomic.Bool{}
		proposeCh[id] = make(chan []byte, 4)
	}
	for _, id := range ids {
		id := id
		n, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids,
			ElectionTickMin: 20, ElectionTickMax: 40, HeartbeatTick: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			tick := time.NewTicker(5 * time.Millisecond) // 1 tick = 5ms
			defer tick.Stop()
			tr := transports[id]
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					n.Tick()
				case m := <-tr.Recv():
					_ = n.Step(m)
				case data := <-proposeCh[id]:
					_ = n.Propose(data)
				}
				rd := n.Ready()
				isLeader[id].Store(rd.State == raft.Leader)
				for _, m := range rd.Messages {
					_ = tr.Send(m) // drops on failure; raft retries
				}
				for _, e := range rd.Committed {
					if e.Type == raft.EntryNormal && len(e.Data) > 0 {
						select {
						case committed <- fmt.Sprintf("%d:%s", id, e.Data):
						default:
						}
					}
				}
			}
		}()
	}
	defer close(stop)

	// Wait for a leader, then propose through its driver.
	deadline := time.After(15 * time.Second)
	var leaderID uint64
	for leaderID == 0 {
		select {
		case <-deadline:
			t.Fatal("no leader elected over TCP")
		case <-time.After(20 * time.Millisecond):
			for _, id := range ids {
				if isLeader[id].Load() {
					leaderID = id
				}
			}
		}
	}
	proposeCh[leaderID] <- []byte("tcp-entry")
	seen := map[string]bool{}
	for len(seen) < 3 {
		select {
		case s := <-committed:
			seen[s] = true
		case <-time.After(15 * time.Second):
			t.Fatalf("only %d/3 nodes committed: %v", len(seen), seen)
		}
	}
}
