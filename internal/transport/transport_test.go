package transport

import (
	"errors"
	"sync"
	"testing"
)

func TestCounterRecords(t *testing.T) {
	c := NewCounter()
	c.Record("a", 100)
	c.Record("a", 50)
	c.Record("b", 8)
	if c.Bytes("a") != 150 || c.Bytes("b") != 8 {
		t.Fatalf("bytes: a=%d b=%d", c.Bytes("a"), c.Bytes("b"))
	}
	if c.Messages("a") != 2 || c.Messages("b") != 1 {
		t.Fatal("message counts wrong")
	}
	if c.TotalBytes() != 158 || c.TotalMessages() != 3 {
		t.Fatalf("totals: %d bytes, %d msgs", c.TotalBytes(), c.TotalMessages())
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] != "a" || kinds[1] != "b" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Record("x", 1)
			}
		}()
	}
	wg.Wait()
	if c.Bytes("x") != 8000 {
		t.Fatalf("bytes = %d, want 8000", c.Bytes("x"))
	}
}

func TestMessageWireBytes(t *testing.T) {
	m := Message{Payload: make([]float64, 10)}
	if m.WireBytes() != 80 {
		t.Fatalf("wire bytes = %d", m.WireBytes())
	}
}

func TestMeshSendDrain(t *testing.T) {
	m := NewMesh(3, nil)
	if m.N() != 3 {
		t.Fatal("N wrong")
	}
	msg := Message{From: 0, To: 2, Kind: "k", Payload: []float64{1, 2}}
	if err := m.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := m.Drain(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].From != 0 || got[0].Payload[1] != 2 {
		t.Fatalf("drained %v", got)
	}
	// Drain empties the inbox.
	got, err = m.Drain(2)
	if err != nil || len(got) != 0 {
		t.Fatalf("second drain: %v, %v", got, err)
	}
	if m.Counter().Bytes("k") != 16 {
		t.Fatalf("counted %d bytes", m.Counter().Bytes("k"))
	}
}

func TestMeshCrashSemantics(t *testing.T) {
	m := NewMesh(3, nil)
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	if m.Alive(1) {
		t.Fatal("crashed peer reported alive")
	}
	// Crashed sender errors.
	err := m.Send(Message{From: 1, To: 0, Kind: "k", Payload: []float64{1}})
	if !errors.Is(err, errCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// Crashed receiver: message counted but dropped.
	before := m.Counter().TotalBytes()
	if err := m.Send(Message{From: 0, To: 1, Kind: "k", Payload: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if m.Counter().TotalBytes() != before+8 {
		t.Fatal("bytes to crashed receiver must still be counted")
	}
	if alive := []bool{m.Alive(0), m.Alive(1), m.Alive(2)}; !alive[0] || alive[1] || !alive[2] {
		t.Fatalf("alive = %v", alive)
	}
}

func TestMeshRangeErrors(t *testing.T) {
	m := NewMesh(2, nil)
	if err := m.Send(Message{From: -1, To: 0}); err == nil {
		t.Fatal("want error for negative sender")
	}
	if err := m.Send(Message{From: 0, To: 5}); err == nil {
		t.Fatal("want error for receiver out of range")
	}
	if _, err := m.Drain(9); err == nil {
		t.Fatal("want error for drain out of range")
	}
	if err := m.Crash(9); err == nil {
		t.Fatal("want error for crash out of range")
	}
	if m.Alive(-2) {
		t.Fatal("out-of-range peer cannot be alive")
	}
}

func TestSharedCounterAcrossMeshes(t *testing.T) {
	c := NewCounter()
	m1 := NewMesh(2, c)
	m2 := NewMesh(2, c)
	_ = m1.Send(Message{From: 0, To: 1, Kind: "k", Payload: []float64{1}})
	_ = m2.Send(Message{From: 0, To: 1, Kind: "k", Payload: []float64{1, 2}})
	if c.TotalBytes() != 24 {
		t.Fatalf("shared counter = %d", c.TotalBytes())
	}
}
