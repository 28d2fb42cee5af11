// Package telemetry is a dependency-free instrumentation registry:
// named counters, gauges and fixed-bucket histograms with atomic
// hot-path updates, plus a bounded ring of structured trace events.
//
// Design rules (see DESIGN.md §8):
//
//   - A nil *Registry is a valid no-op: every method on Registry and on
//     the handles it returns (Counter, Gauge, Histogram) is safe on a
//     nil receiver, so library code instruments unconditionally and
//     un-instrumented users pay a single predictable-nil branch.
//
//   - Handles are resolved once (at construction time of the
//     instrumented component) and then updated with plain atomic ops;
//     the name→metric map is only consulted on resolution and snapshot.
//
//   - Time comes from the registry's clock (SetClock). Simulated runs
//     install the virtual clock so identical seeds produce
//     byte-identical snapshots; live binaries install WallClock.
//
// Metric names are slash-hierarchical lowercase, e.g.
// "raft/elections_won" or "transport/peer3/bytes_sent".
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// WallClock is the clock for live (non-simulated) processes: microseconds
// since the Unix epoch, matching the unit of the simnet virtual clock.
var WallClock = func() int64 { return time.Now().UnixMicro() }

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets. A value
// v lands in the first bucket with v <= bounds[i]; values above the last
// bound land in the overflow bucket counts[len(bounds)].
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first i with bounds[i] >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Field is one key/value pair attached to a trace event. Values are
// int64 so events stay comparable and deterministic across runs.
type Field struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// F builds a trace field.
func F(k string, v int64) Field { return Field{K: k, V: v} }

// Event is one structured trace record. Subgroup is -1 when the event
// is not tied to a subgroup. AtUs is microseconds on the registry clock
// (virtual in simulations, wall in live processes).
type Event struct {
	Seq      uint64  `json:"seq"`
	AtUs     int64   `json:"at_us"`
	Kind     string  `json:"kind"`
	Node     uint64  `json:"node"`
	Subgroup int     `json:"subgroup"`
	Fields   []Field `json:"fields,omitempty"`
}

// DefaultTraceCap is the trace-ring capacity used by New.
const DefaultTraceCap = 1024

// Registry holds named metrics and the trace ring. Create with New;
// a nil *Registry is a valid no-op sink.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	clock func() int64

	traceMu   sync.Mutex
	trace     []Event
	traceCap  int
	traceNext int // ring write cursor, only meaningful once len(trace) == traceCap
	traceSeq  uint64
}

// New returns an empty registry with the wall clock and the default
// trace capacity.
func New() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		clock:      WallClock,
		traceCap:   DefaultTraceCap,
	}
}

// SetClock installs the timestamp source for trace events and Now.
// Simulated runs point this at the virtual clock. No-op on nil.
func (r *Registry) SetClock(clock func() int64) {
	if r == nil || clock == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Now returns the current registry time in microseconds (0 on nil), for
// callers that measure durations fed into histograms.
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	return c()
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (later calls reuse the existing
// bounds). Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// Trace appends a structured event to the bounded ring. When the ring
// is full the oldest event is overwritten; Seq keeps growing so the
// snapshot exposes how many events were emitted in total. Subgroup -1
// means "not subgroup-scoped". No-op on a nil registry.
func (r *Registry) Trace(kind string, node uint64, subgroup int, fields ...Field) {
	if r == nil {
		return
	}
	at := r.Now()
	r.traceMu.Lock()
	r.traceSeq++
	ev := Event{Seq: r.traceSeq, AtUs: at, Kind: kind, Node: node, Subgroup: subgroup, Fields: fields}
	if len(r.trace) < r.traceCap {
		r.trace = append(r.trace, ev)
	} else {
		r.trace[r.traceNext] = ev
		r.traceNext = (r.traceNext + 1) % r.traceCap
	}
	r.traceMu.Unlock()
}
