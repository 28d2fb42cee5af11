package transport

import (
	"testing"

	"repro/internal/telemetry"
)

// TestMeterTelemetry pins the transport/* counter semantics: a charge
// counts bytes and messages in total and per sender, and on the traffic
// counter by kind; drops and receptions are counted as the fabric
// reports them.
func TestMeterTelemetry(t *testing.T) {
	reg := telemetry.New()
	c := NewCounter()
	m := NewMeter(3, c, reg)
	m.Sent(0, "x", 24)
	m.Sent(0, "x", 24)
	m.Sent(1, "y", 24)
	m.Sent(0, "x", 24)
	m.Dropped(2)
	m.Dropped(1)
	m.Received(1)

	s := reg.Snapshot()
	want := map[string]int64{
		"transport/msgs_sent":        4,
		"transport/bytes_sent":       96,
		"transport/msgs_dropped":     3,
		"transport/msgs_received":    1,
		"transport/peer0/msgs_sent":  3,
		"transport/peer0/bytes_sent": 72,
		"transport/peer1/msgs_sent":  1,
		"transport/peer1/bytes_sent": 24,
		"transport/peer2/msgs_sent":  0,
		"transport/peer2/bytes_sent": 0,
	}
	for name, v := range want {
		if got, ok := s.Counters[name]; got != v || !ok {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, v)
		}
	}
	if c.Bytes("x") != 72 || c.Messages("x") != 3 || c.Bytes("y") != 24 {
		t.Fatalf("counter x=%d/%d y=%d", c.Bytes("x"), c.Messages("x"), c.Bytes("y"))
	}
}

// TestMeterWithoutRegistry: a meter without a registry charges the
// traffic counter alone, without panicking.
func TestMeterWithoutRegistry(t *testing.T) {
	c := NewCounter()
	m := NewMeter(2, c, nil)
	m.Sent(1, "x", 8)
	m.Dropped(1)
	m.Received(1)
	if c.TotalBytes() != 8 || c.TotalMessages() != 1 {
		t.Fatalf("counter %d bytes, %d messages", c.TotalBytes(), c.TotalMessages())
	}
}
