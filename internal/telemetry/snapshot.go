package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// HistogramSnapshot is the frozen JSON form of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every metric and the trace ring.
// The JSON encoding is the stable schema served by /debug/telemetry and
// dumped by p2pfl-experiments -telemetry: map keys serialize in sorted
// order and trace events in ascending Seq, so identical-seed simulated
// runs produce byte-identical output.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Trace      []Event                      `json:"trace"`
	// TraceTotal is the number of events emitted over the registry's
	// lifetime; when it exceeds len(Trace), the ring dropped the oldest.
	TraceTotal uint64 `json:"trace_total"`
}

// Snapshot copies the registry's current state. On a nil registry it
// returns an empty (but fully initialized) snapshot, so callers can
// serve it without nil checks.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Trace:      []Event{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64{}, h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[k] = hs
	}

	r.traceMu.Lock()
	s.Trace = append(s.Trace, r.trace...)
	s.TraceTotal = r.traceSeq
	r.traceMu.Unlock()
	sort.Slice(s.Trace, func(i, j int) bool { return s.Trace[i].Seq < s.Trace[j].Seq })
	return s
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline. Safe on a nil registry (writes the empty snapshot).
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
