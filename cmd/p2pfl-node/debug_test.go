package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// populatedRegistry builds a registry on a fixed clock exercising every
// element of the exposition schema: counters, a gauge, a histogram with
// an overflow observation, and trace events with and without fields.
func populatedRegistry() *telemetry.Registry {
	reg := telemetry.New()
	reg.SetClock(func() int64 { return 1234567 })
	reg.Counter("raft/elections_won").Add(3)
	reg.Counter("transport/msgs_sent").Add(42)
	reg.Gauge("round/fedavg_weight_total").Set(0.75)
	h := reg.Histogram("sac/phase_share_us", []float64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(99999) // overflow bucket
	reg.Trace("raft/leader_elected", 2, 0, telemetry.F("term", 4))
	reg.Trace("round/aggregate", 1, -1)
	return reg
}

// TestDebugTelemetryGolden pins the /debug/telemetry JSON schema to a
// golden file: any change to field names, ordering or layout — the
// exposition contract external scrapers depend on — fails this test
// until the golden is regenerated with -update.
func TestDebugTelemetryGolden(t *testing.T) {
	srv := httptest.NewServer(newDebugMux(populatedRegistry(), 1, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "telemetry.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with `go test -run Golden -update ./cmd/p2pfl-node`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/debug/telemetry drifted from golden schema\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The document must also be structurally valid for scrapers that
	// parse rather than diff.
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]float64
		Histograms map[string]struct {
			Bounds []float64 `json:"bounds"`
			Counts []int64   `json:"counts"`
			Count  int64     `json:"count"`
			Sum    float64   `json:"sum"`
		} `json:"histograms"`
		Trace      []json.RawMessage `json:"trace"`
		TraceTotal int               `json:"trace_total"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if doc.Counters["raft/elections_won"] != 3 {
		t.Errorf("counters[raft/elections_won] = %d, want 3", doc.Counters["raft/elections_won"])
	}
	h := doc.Histograms["sac/phase_share_us"]
	if h.Count != 3 || len(h.Counts) != len(h.Bounds)+1 {
		t.Errorf("histogram snapshot malformed: %+v", h)
	}
	if doc.TraceTotal != 2 || len(doc.Trace) != 2 {
		t.Errorf("trace_total = %d with %d events, want 2/2", doc.TraceTotal, len(doc.Trace))
	}
}

// TestDebugHealthEndpoint: /debug/health reports the failure detector's
// verdicts and the transport's circuit states as one JSON document.
func TestDebugHealthEndpoint(t *testing.T) {
	now := int64(0)
	det, err := health.New([]uint64{2, 3}, health.Options{
		TickIntervalUs: 1000,
		Clock:          func() int64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transport.NewRaftTCP(1, map[uint64]string{1: "127.0.0.1:0", 2: "127.0.0.1:1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Leave peer 3 silent past the Down threshold so the document shows
	// a non-trivial verdict.
	det.Observe(2)
	now = 5000
	det.Observe(2)
	det.Tick()

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug/health", nil)
	newDebugMux(nil, 1, det, tr).ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var doc struct {
		Node     uint64 `json:"node"`
		Detector []struct {
			Peer            uint64 `json:"peer"`
			State           string `json:"state"`
			Watched         bool   `json:"watched"`
			SinceActivityUs int64  `json:"since_activity_us"`
		} `json:"detector"`
		Circuits []struct {
			Peer  uint64 `json:"peer"`
			State string `json:"state"`
		} `json:"circuits"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, rr.Body.Bytes())
	}
	if doc.Node != 1 {
		t.Errorf("node = %d, want 1", doc.Node)
	}
	if len(doc.Detector) != 2 {
		t.Fatalf("detector entries = %d, want 2", len(doc.Detector))
	}
	if doc.Detector[0].Peer != 2 || doc.Detector[0].State != "up" {
		t.Errorf("peer 2 status = %+v, want up", doc.Detector[0])
	}
	if doc.Detector[1].Peer != 3 || doc.Detector[1].State != "down" {
		t.Errorf("peer 3 status = %+v, want down", doc.Detector[1])
	}
	// No sends yet, so no per-peer senders have spun up — the circuit
	// list is present but empty.
	if doc.Circuits == nil {
		t.Error("circuits key missing from document")
	}
}

// TestDebugHealthNilDetector: with no detector or transport wired the
// endpoint still serves a valid empty document.
func TestDebugHealthNilDetector(t *testing.T) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug/health", nil)
	newDebugMux(nil, 7, nil, nil).ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	for _, key := range []string{"node", "detector", "circuits"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("document missing %q key", key)
		}
	}
}

// TestDebugTelemetryNilRegistry: the handler must serve the canonical
// empty document (not crash, not 500) when built with a nil registry.
func TestDebugTelemetryNilRegistry(t *testing.T) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug/telemetry", nil)
	newDebugMux(nil, 1, nil, nil).ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("nil-registry response is not valid JSON: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms", "trace", "trace_total"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("empty document missing %q key", key)
		}
	}
}

// TestDebugPprofIndex: the debug mux serves net/http/pprof's index, which
// lists the runtime's named profiles.
func TestDebugPprofIndex(t *testing.T) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	newDebugMux(nil, 1, nil, nil).ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	if !bytes.Contains(rr.Body.Bytes(), []byte("goroutine")) {
		t.Fatalf("pprof index does not list goroutine:\n%s", rr.Body.String())
	}
}
