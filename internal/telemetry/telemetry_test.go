package telemetry

import (
	"sync"
	"testing"
)

// TestNilRegistryNoOps drives every entry point through a nil registry
// and nil handles: nothing may panic and reads return zero values.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	r.SetClock(func() int64 { return 42 })
	if got := r.Now(); got != 0 {
		t.Fatalf("nil Now() = %d, want 0", got)
	}

	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value() = %d, want 0", got)
	}

	g := r.Gauge("x")
	g.Set(1.5)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge Value() = %v, want 0", got)
	}

	h := r.Histogram("x", []float64{1, 2})
	h.Observe(1.7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram Count/Sum = %d/%v, want 0/0", h.Count(), h.Sum())
	}

	r.Trace("kind", 1, 0, F("k", 1))
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 || len(s.Trace) != 0 || s.TraceTotal != 0 {
		t.Fatalf("nil Snapshot() = %+v, want empty", s)
	}
}

// TestConcurrentCounterAdds checks that N goroutines hammering the same
// counter (and gauge, and histogram) sum exactly.
func TestConcurrentCounterAdds(t *testing.T) {
	const goroutines, perG = 16, 1000
	const want = goroutines * perG
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0.5})

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Add(1)
				g.Set(want)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != want {
		t.Errorf("gauge = %v, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := h.Sum(); got != want {
		t.Errorf("histogram sum = %v, want %d", got, want)
	}
}

// TestHistogramBoundaries pins the bucket rule: a value lands in the
// first bucket whose upper bound is >= the value; values above the last
// bound land in the overflow bucket.
func TestHistogramBoundaries(t *testing.T) {
	bounds := []float64{1, 10, 100}
	tests := []struct {
		name   string
		value  float64
		bucket int
	}{
		{"below first", 0.5, 0},
		{"exactly first", 1, 0},
		{"just above first", 1.0001, 1},
		{"exactly middle", 10, 1},
		{"inside last", 99.9, 2},
		{"exactly last", 100, 2},
		{"overflow", 100.0001, 3},
		{"far overflow", 1e9, 3},
		{"negative", -3, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New()
			h := r.Histogram("h", bounds)
			h.Observe(tt.value)
			for i := range h.counts {
				want := int64(0)
				if i == tt.bucket {
					want = 1
				}
				if got := h.counts[i].Load(); got != want {
					t.Errorf("bucket[%d] = %d, want %d (value %v)", i, got, want, tt.value)
				}
			}
		})
	}
}

// TestHistogramUnsortedBounds: bounds are sorted at creation so callers
// may list them in any order.
func TestHistogramUnsortedBounds(t *testing.T) {
	r := New()
	h := r.Histogram("h", []float64{100, 1, 10})
	h.Observe(5)
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("value 5 with bounds {1,10,100}: bucket[1] = %d, want 1", got)
	}
}

// TestTraceRingWrap fills the ring past capacity and checks that the
// snapshot keeps exactly the newest cap events in ascending seq order.
func TestTraceRingWrap(t *testing.T) {
	const cap, emitted = 8, 21
	r := New()
	r.SetClock(func() int64 { return 7 })
	r.SetTraceCap(cap)
	for i := 0; i < emitted; i++ {
		r.Trace("ev", uint64(i), -1, F("i", int64(i)))
	}
	s := r.Snapshot()
	if s.TraceTotal != emitted {
		t.Fatalf("TraceTotal = %d, want %d", s.TraceTotal, emitted)
	}
	if len(s.Trace) != cap {
		t.Fatalf("len(Trace) = %d, want %d", len(s.Trace), cap)
	}
	for i, ev := range s.Trace {
		wantSeq := uint64(emitted - cap + i + 1)
		if ev.Seq != wantSeq {
			t.Errorf("trace[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.AtUs != 7 {
			t.Errorf("trace[%d].AtUs = %d, want 7 (installed clock)", i, ev.AtUs)
		}
		if i > 0 && s.Trace[i-1].Seq >= ev.Seq {
			t.Errorf("trace not strictly ascending at %d: %d >= %d", i, s.Trace[i-1].Seq, ev.Seq)
		}
	}
}

// TestHandleIdentity: resolving the same name twice returns the same
// handle, so increments through either are visible through both.
func TestHandleIdentity(t *testing.T) {
	r := New()
	a, b := r.Counter("same"), r.Counter("same")
	if a != b {
		t.Fatal("Counter(name) returned distinct handles for one name")
	}
	a.Add(2)
	b.Add(3)
	if got := r.Snapshot().Counters["same"]; got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{99}) // later bounds ignored
	if h1 != h2 {
		t.Fatal("Histogram(name) returned distinct handles for one name")
	}
	if len(h2.bounds) != 2 {
		t.Fatalf("second Histogram call changed bounds: %v", h2.bounds)
	}
}

// TestCounterNegativeAdds: Add takes any delta; Value reflects the sum.
func TestCounterNegativeAdds(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(10)
	c.Add(-4)
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}
