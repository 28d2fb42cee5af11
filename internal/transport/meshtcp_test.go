package transport

import (
	"errors"
	"testing"
)

func newTCPMesh(t *testing.T, n int) *TCPMesh {
	t.Helper()
	m, err := NewTCPMesh(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestTCPMeshSendDrain(t *testing.T) {
	m := newTCPMesh(t, 3)
	msg := Message{From: 0, To: 2, Kind: "k", ShareIdx: 1, Payload: []float64{1, 2, 3}}
	if err := m.Send(msg); err != nil {
		t.Fatal(err)
	}
	// Send is synchronous: the message is already in the inbox.
	got, err := m.Drain(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ShareIdx != 1 || got[0].Payload[2] != 3 {
		t.Fatalf("drained %v", got)
	}
	if m.Counter().Bytes("k") != 24 {
		t.Fatalf("counted %d bytes", m.Counter().Bytes("k"))
	}
}

func TestTCPMeshOrderingPreserved(t *testing.T) {
	m := newTCPMesh(t, 2)
	for i := 0; i < 50; i++ {
		if err := m.Send(Message{From: 0, To: 1, Kind: "seq", ShareIdx: i, Payload: []float64{0}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, msg := range got {
		if msg.ShareIdx != i {
			t.Fatalf("message %d has index %d", i, msg.ShareIdx)
		}
	}
}

func TestTCPMeshCrashSemantics(t *testing.T) {
	m := newTCPMesh(t, 3)
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	if m.Alive(1) {
		t.Fatal("crashed peer alive")
	}
	// Crashed sender errors.
	if err := m.Send(Message{From: 1, To: 0, Kind: "k", Payload: []float64{1}}); !errors.Is(err, errCrashed) {
		t.Fatalf("err = %v", err)
	}
	// Crashed receiver: counted, dropped, no error.
	before := m.Counter().TotalBytes()
	if err := m.Send(Message{From: 0, To: 1, Kind: "k", Payload: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if m.Counter().TotalBytes() != before+8 {
		t.Fatal("bytes to crashed receiver must be counted")
	}
	if alive := []bool{m.Alive(0), m.Alive(1), m.Alive(2)}; !alive[0] || alive[1] || !alive[2] {
		t.Fatalf("alive = %v", alive)
	}
}

func TestTCPMeshValidation(t *testing.T) {
	if _, err := NewTCPMesh(0, nil); err == nil {
		t.Fatal("want error for 0 peers")
	}
	m := newTCPMesh(t, 2)
	if err := m.Send(Message{From: -1, To: 0}); err == nil {
		t.Fatal("want endpoint error")
	}
	if _, err := m.Drain(5); err == nil {
		t.Fatal("want range error")
	}
	if err := m.Crash(9); err == nil {
		t.Fatal("want range error")
	}
	if m.Alive(-1) {
		t.Fatal("out of range cannot be alive")
	}
	m.Close()
	if err := m.Send(Message{From: 0, To: 1}); err == nil {
		t.Fatal("want closed error")
	}
	if err := m.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}
