package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from outside the
// program: the benchmark wraps the seams the repo exposes (interfaces and
// single entry-point calls) and never edits the code it measures.
// Spans hold no pointers, so a million of them cost the collector nothing.
type span struct {
	Start, End int64 // ns since the tracer's epoch
	Parent     int32 // index of the causing span; -1 for a round root
	Round      int32 // spans of one round share this id
	Name       uint16
}

// spanName is a "<layer>.<op>" pair; layer is the Go package name.
type spanName struct{ Layer, Op string }

func (n spanName) String() string { return n.Layer + "." + n.Op }

// tracer records spans in memory. The driver goroutine opens and closes
// the nested spans (round, core.aggregate, sac.run); wrappers called from
// any goroutine append leaf spans under whichever driver span is open, so
// the parent link stays right even if a later change makes a default
// path concurrent. A nil or switched-off tracer records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	names []spanName

	mu    sync.Mutex
	spans []span
	stack []int32 // open driver spans, innermost last
	round int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id interns a span name; wrappers resolve theirs once at construction.
func (t *tracer) id(layer, op string) uint16 {
	if t == nil {
		return 0
	}
	for i, n := range t.names {
		if n.Layer == layer && n.Op == op {
			return uint16(i)
		}
	}
	t.names = append(t.names, spanName{layer, op})
	return uint16(len(t.names) - 1)
}

func (t *tracer) enabled() bool { return t != nil && t.on }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a nested span on the driver goroutine.
func (t *tracer) open(name uint16) int32 {
	if !t.enabled() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{Start: start, Parent: t.top(), Round: t.round, Name: name})
	t.stack = append(t.stack, idx)
	t.mu.Unlock()
	return idx
}

// close ends the innermost open span, which must be idx.
func (t *tracer) close(idx int32) {
	if idx < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// begin and end bracket a childless span; wrappers on any goroutine call
// them. Both do nothing while the tracer is nil or switched off.
func (t *tracer) begin() int64 {
	if !t.enabled() {
		return 0
	}
	return t.now()
}

func (t *tracer) end(name uint16, start int64) {
	if !t.enabled() {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Start: start, End: end, Parent: t.top(), Round: t.round, Name: name})
	t.mu.Unlock()
}

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// layerTotals is what the ledger is built from: per span name, the summed
// duration, the summed self time and the number of calls over all traced
// rounds.
type layerTotals struct {
	DurNs  map[string]int64
	SelfNs map[string]int64
	Calls  map[string]int64
	WallNs int64 // summed duration of the round roots
}

// totals derives self times. A span's self time is its duration minus the
// union of its children's intervals, so Σ self over every span equals the
// summed wall time of the round roots even when children overlap.
func (t *tracer) totals() layerTotals {
	kids := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := layerTotals{DurNs: map[string]int64{}, SelfNs: map[string]int64{}, Calls: map[string]int64{}}
	for i, s := range t.spans {
		name := t.names[s.Name].String()
		out.DurNs[name] += s.End - s.Start
		out.SelfNs[name] += s.End - s.Start - t.covered(kids[int32(i)])
		out.Calls[name]++
		if s.Parent < 0 {
			out.WallNs += s.End - s.Start
		}
	}
	return out
}

// covered returns the length of the union of the given spans' intervals.
func (t *tracer) covered(idx []int32) int64 {
	if len(idx) == 0 {
		return 0
	}
	sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	var total int64
	lo, hi := t.spans[idx[0]].Start, t.spans[idx[0]].End
	for _, i := range idx[1:] {
		s := t.spans[i]
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// maxSpansWritten caps the trace file: xlayer records ~160k leaf spans a
// round, and the first rounds already show the whole shape.
const maxSpansWritten = 200_000

// traceFile is the on-disk form of one workload's spans.
type traceFile struct {
	Workload string      `json:"workload"`
	Recorded int         `json:"spans_recorded"`
	Written  int         `json:"spans_written"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (t *tracer) export(workload string) traceFile {
	n := len(t.spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	f := traceFile{Workload: workload, Recorded: len(t.spans), Written: n, Spans: make([]traceSpan, n)}
	for i, s := range t.spans[:n] {
		name := t.names[s.Name]
		f.Spans[i] = traceSpan{ID: i, Parent: int(s.Parent), Round: int(s.Round),
			Layer: name.Layer, Name: name.String(), StartNs: s.Start, EndNs: s.End}
	}
	return f
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
