package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// Receive-buffer recycling suite (Network's payload-ownership rules):
// what a receiver still holds is never touched, what it recycles is
// reused, the free list stays bounded, a frame that dies mid-vector
// never reaches an inbox, and concurrent senders to one peer neither
// interleave frames nor steal acks. Run under -race via make test-wire.

// recycleDim is a vector long enough for the free list to keep.
const recycleDim = minRecycle + 5

func rampVec(dim int, base float64) []float64 {
	w := make([]float64, dim)
	for i := range w {
		w[i] = base + float64(i)
	}
	return w
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// drainOne sends w from→to and returns the single payload that arrives.
func drainOne(t *testing.T, m Network, from, to int, w []float64) []float64 {
	t.Helper()
	if err := m.Send(Message{From: from, To: to, Kind: "sac/share", Payload: w}); err != nil {
		t.Fatal(err)
	}
	msgs, err := m.Drain(to)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("drained %d messages (err %v), want 1", len(msgs), err)
	}
	return msgs[0].Payload
}

// TestMeshRecycleIsNoOp pins the in-memory mesh's side of the contract:
// its payloads alias the sender's memory, so Recycle must neither touch
// the slice nor let a later Send reuse it.
func TestMeshRecycleIsNoOp(t *testing.T) {
	m := NewMesh(2, nil)
	w := rampVec(recycleDim, 1)
	got := drainOne(t, m, 0, 1, w)
	if &got[0] != &w[0] {
		t.Fatal("Mesh payload no longer aliases the sender's slice; Recycle's no-op contract needs revisiting")
	}
	m.Recycle(got)
	if !sameVec(w, rampVec(recycleDim, 1)) {
		t.Fatal("Mesh.Recycle modified the sender's vector")
	}
	other := drainOne(t, m, 0, 1, rampVec(recycleDim, -5))
	if &other[0] == &w[0] || !sameVec(w, rampVec(recycleDim, 1)) {
		t.Fatal("a later Send reused a vector passed to Mesh.Recycle")
	}
}

// TestTCPMeshRecycleReusesOnlyWhatWasReturned: a recycled payload is the
// destination of the next receive; a payload the caller keeps (and the
// sender's own slice) is bit-identical after any amount of later
// traffic.
func TestTCPMeshRecycleReusesOnlyWhatWasReturned(t *testing.T) {
	m := newTCPMesh(t, 2)
	sent := rampVec(recycleDim, 1)
	held := drainOne(t, m, 0, 1, sent)
	scrap := drainOne(t, m, 0, 1, rampVec(recycleDim, 2))
	if &held[0] == &sent[0] {
		t.Fatal("TCP payload aliases the sender's slice")
	}
	scrapAt := &scrap[0]
	m.Recycle(scrap)
	for round := 0; round < 5; round++ {
		next := drainOne(t, m, 1, 0, rampVec(recycleDim, float64(10*round)))
		if &next[0] != scrapAt {
			t.Fatalf("round %d: receive did not land in the recycled vector", round)
		}
		if !sameVec(next, rampVec(recycleDim, float64(10*round))) {
			t.Fatalf("round %d: payload corrupted in a reused vector", round)
		}
		m.Recycle(next)
	}
	if !sameVec(held, rampVec(recycleDim, 1)) || !sameVec(sent, rampVec(recycleDim, 1)) {
		t.Fatal("a vector the caller still holds changed under later traffic")
	}
	// Metadata-sized payloads are not worth a slot.
	m.Recycle(drainOne(t, m, 0, 1, []float64{7}))
	if len(m.free) != 1 {
		t.Fatalf("free list holds %d vectors, want the one model-sized vector", len(m.free))
	}
}

// TestTCPMeshFreeListStaysBounded pins the free list to what the caller
// has had outstanding. 100 rounds of a contributor-at-a-time exchange
// (one peer sends every other peer two vectors, they drain and recycle,
// then the next peer's turn) never leave more than the (n−1)·2 of one
// turn on the list; 100 rounds of the send-everything-then-drain shape
// raise the bound to the n(n−1)·2 that shape has in flight; and a mesh
// handed far more than that keeps none of it, nor anything longer than
// the longest payload it delivered.
func TestTCPMeshFreeListStaysBounded(t *testing.T) {
	const n = 3
	m := newTCPMesh(t, n)
	w := rampVec(recycleDim, 0)
	check := func(when string, bound int) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		bytes := 0
		for _, v := range m.free {
			bytes += 8 * cap(v)
		}
		if len(m.free) > bound || bytes > bound*8*recycleDim {
			t.Fatalf("%s: free list holds %d vectors / %d bytes, bound %d / %d", when, len(m.free), bytes, bound, bound*8*recycleDim)
		}
		if m.out != 0 || m.outMax != bound {
			t.Fatalf("%s: %d vectors outstanding (high-water %d), want 0 (%d)", when, m.out, m.outMax, bound)
		}
	}
	sendFrom := func(from int) {
		t.Helper()
		for to := 0; to < n; to++ {
			for rep := 0; rep < 2 && to != from; rep++ {
				if err := m.Send(Message{From: from, To: to, Kind: "sac/share", ShareIdx: rep, Payload: w}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// drainAll drains and recycles every inbox; sender (−1: nobody) is the
	// one peer that expects nothing, everyone else expects want messages.
	drainAll := func(when string, want, sender int) {
		t.Helper()
		for peer := 0; peer < n; peer++ {
			msgs, err := m.Drain(peer)
			expect := want
			if peer == sender {
				expect = 0
			}
			if err != nil || len(msgs) != expect {
				t.Fatalf("%s: peer %d drained %d (err %v), want %d", when, peer, len(msgs), err, expect)
			}
			for _, msg := range msgs {
				if !sameVec(msg.Payload, w) {
					t.Fatalf("%s: payload corrupted", when)
				}
				m.Recycle(msg.Payload)
			}
		}
	}
	for round := 0; round < 100; round++ {
		for from := 0; from < n; from++ {
			sendFrom(from)
			drainAll(fmt.Sprintf("streaming round %d", round), 2, from)
		}
		check(fmt.Sprintf("streaming round %d", round), 2*(n-1))
	}
	fresh := m.fresh
	for round := 0; round < 100; round++ {
		for from := 0; from < n; from++ {
			sendFrom(from)
		}
		drainAll(fmt.Sprintf("batch round %d", round), 2*(n-1), -1)
		check(fmt.Sprintf("batch round %d", round), 2*n*(n-1))
	}
	if grown := m.fresh - fresh; grown != 2*n*(n-1)-2*(n-1) {
		t.Fatalf("the batch shape allocated %d receive vectors, want the %d its first round lacked", grown, 2*n*(n-1)-2*(n-1))
	}
	for i := 0; i < 50; i++ {
		m.Recycle(make([]float64, recycleDim))
		m.Recycle(make([]float64, 64*recycleDim)) // longer than anything delivered: never kept
	}
	check("after flooding Recycle", 2*n*(n-1))
}

// waitClosed blocks until the peer has closed conn, failing if it sends
// anything first or keeps the connection open.
func waitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read %d bytes, err %v; want the connection closed", n, err)
	}
}

// TestTCPMeshTruncatedFrameNeverDelivered plays a hostile peer on a raw
// socket: an honest header and envelope announce a model-sized vector,
// half of it arrives, the connection dies. Nothing reaches the inbox
// and the free-list vector the decoder had taken goes back to the list.
func TestTCPMeshTruncatedFrameNeverDelivered(t *testing.T) {
	m := newTCPMesh(t, 2)
	m.Recycle(drainOne(t, m, 0, 1, rampVec(recycleDim, 1)))
	if len(m.free) != 1 {
		t.Fatalf("free list holds %d vectors, want 1", len(m.free))
	}
	frame := wire.AppendMeshFrame(nil, wire.MeshMessage{From: 0, To: 1, Kind: "sac/share", Payload: rampVec(recycleDim, 9)})
	conn, err := net.Dial("tcp", m.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The serve goroutine closes its side when it exits on the short
	// read, after it has put the vector back: end of stream here says
	// when to look at what it left behind.
	waitClosed(t, conn)
	if msgs, _ := m.Drain(1); len(msgs) != 0 {
		t.Fatalf("half a frame was delivered: %d messages", len(msgs))
	}
	if len(m.free) != 1 {
		t.Fatalf("free list holds %d vectors after the short read, want the taken vector back", len(m.free))
	}
	// The mesh still works, and the returned vector is reused intact.
	if got := drainOne(t, m, 0, 1, rampVec(recycleDim, 3)); !sameVec(got, rampVec(recycleDim, 3)) {
		t.Fatal("payload corrupted after a truncated frame")
	}
}

// TestTCPMeshClosesOnForeignFrameKind is the hostile-input regression
// for the mesh listener: a round defines mesh frames and nothing else,
// so any other kind ends the connection on its 12-byte header. The
// frame is the delta-sparse golden with its dimension patched to the
// largest a decoder would ever have accepted — the ~50 bytes that used
// to be answered with a 1 GiB vector in the inbox.
func TestTCPMeshClosesOnForeignFrameKind(t *testing.T) {
	frame, err := os.ReadFile("../wire/testdata/delta_sparse_v1.wire")
	if err != nil {
		t.Fatal(err)
	}
	if kind, _, err := wire.ParseHeader(frame); err != nil || kind != wire.KindDeltaSparse {
		t.Fatalf("golden is kind %v (err %v), want %v", kind, err, wire.KindDeltaSparse)
	}
	// The sparse block follows the envelope: from, to, shareIdx, then the
	// length-prefixed kind string. Its first field is the dimension.
	envelope := wire.HeaderSize + 3*8
	dimAt := envelope + 4 + int(binary.LittleEndian.Uint32(frame[envelope:]))
	binary.LittleEndian.PutUint32(frame[dimAt:], wire.MaxPayload/8)

	m := newTCPMesh(t, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", m.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn)
	runtime.ReadMemStats(&after)
	if msgs, _ := m.Drain(1); len(msgs) != 0 {
		t.Fatalf("a %v frame reached the inbox: %d messages, %d floats", wire.KindDeltaSparse, len(msgs), len(msgs[0].Payload))
	}
	// Nothing above the decoder's 64 KiB header-sized bound may have been
	// allocated on the frame's say-so (the slack is the test's own
	// sockets and buffers; the old path allocated 1 GiB).
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("serving a foreign frame allocated %d bytes", grew)
	}
	if got := drainOne(t, m, 0, 1, rampVec(recycleDim, 5)); !sameVec(got, rampVec(recycleDim, 5)) {
		t.Fatal("honest payload corrupted after a foreign frame")
	}
}

// TestTCPMeshConcurrentSendersOneDestination is the regression for the
// shared-connection race: every sender to a peer uses the same cached
// connection, so without the per-connection lock two Sends interleave
// their frames (the receiver rejects the garbage and drops the socket)
// and read each other's acks. Eight senders, two message kinds mixed,
// all to peer 0; every message must arrive intact.
func TestTCPMeshConcurrentSendersOneDestination(t *testing.T) {
	const senders, perSender = 8, 12
	m := newTCPMesh(t, senders+1)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				kind := "sac/share"
				if i%3 == 2 {
					kind = "fedavg/download"
				}
				msg := Message{From: s, To: 0, Kind: kind, ShareIdx: i, Payload: rampVec(recycleDim+s, float64(1000*s+i))}
				if err := m.Send(msg); err != nil {
					t.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	msgs, err := m.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != senders*perSender {
		t.Fatalf("%d of %d messages arrived", len(msgs), senders*perSender)
	}
	next := make([]int, senders+1)
	for _, msg := range msgs {
		// Per-sender order survives (each Send returns only after its ack).
		if msg.ShareIdx != next[msg.From] {
			t.Fatalf("sender %d: message %d arrived where %d was due", msg.From, msg.ShareIdx, next[msg.From])
		}
		next[msg.From]++
		want := rampVec(recycleDim+msg.From, float64(1000*msg.From+msg.ShareIdx))
		if !sameVec(msg.Payload, want) {
			t.Fatalf("sender %d message %d (%s) arrived corrupted", msg.From, msg.ShareIdx, msg.Kind)
		}
		m.Recycle(msg.Payload)
	}
}

// BenchmarkTCPMeshSend moves one paper-CNN-sized model vector (10 MB)
// per op over loopback, drains it and recycles it: the steady state of
// a SAC round on TCPMesh. With recycling the receive side allocates no
// vector per op; B/op is what is left (inbox slice, kind string).
func BenchmarkTCPMeshSend(b *testing.B) {
	const dim = 1_250_858
	b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
		m, err := NewTCPMesh(2, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		msg := Message{From: 0, To: 1, Kind: "sac/share", Payload: rampVec(dim, 0)}
		op := func() {
			if err := m.Send(msg); err != nil {
				b.Fatal(err)
			}
			msgs, err := m.Drain(1)
			if err != nil || len(msgs) != 1 || len(msgs[0].Payload) != dim {
				b.Fatalf("drained %d messages (err %v)", len(msgs), err)
			}
			m.Recycle(msgs[0].Payload)
		}
		op() // dial, prove the stream, fill the free list
		b.SetBytes(8 * dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}
