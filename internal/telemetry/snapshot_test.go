package telemetry

import (
	"bytes"
	"testing"
)

func populated() *Registry {
	r := New()
	r.SetClock(func() int64 { return 1000 })
	r.Counter("a/x").Add(3)
	r.Counter("a/y").Add(1)
	r.Gauge("g").Set(2.5)
	r.Histogram("h", []float64{1, 10}).Observe(5)
	r.Trace("start", 1, 0, F("round", 1))
	r.Trace("end", 2, -1)
	return r
}

func TestSnapshotCopiesState(t *testing.T) {
	r := populated()
	s := r.Snapshot()
	if s.Counters["a/x"] != 3 || s.Counters["a/y"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 2.5 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	h := s.Histograms["h"]
	if h.Count != 1 || h.Sum != 5 || h.Counts[1] != 1 {
		t.Fatalf("histogram = %+v", h)
	}
	if len(s.Trace) != 2 || s.TraceTotal != 2 || s.Trace[0].Kind != "start" {
		t.Fatalf("trace = %+v total %d", s.Trace, s.TraceTotal)
	}

	// Snapshot must be a copy: later updates do not leak into it.
	r.Counter("a/x").Add(10)
	r.Trace("late", 3, -1)
	if s.Counters["a/x"] != 3 || len(s.Trace) != 2 {
		t.Fatal("snapshot mutated by later registry updates")
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := populated().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := populated().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two identically-populated registries serialized differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if b1.Len() == 0 || b1.Bytes()[b1.Len()-1] != '\n' {
		t.Fatal("WriteJSON output must end in newline")
	}
}

func TestNilRegistryWriteJSON(t *testing.T) {
	var r *Registry
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{
  "counters": {},
  "gauges": {},
  "histograms": {},
  "trace": [],
  "trace_total": 0
}
`
	if b.String() != want {
		t.Fatalf("nil WriteJSON = %q, want %q", b.String(), want)
	}
}
