package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchLines(t *testing.T) {
	in := `goos: linux
BenchmarkRaftTickNil-4   	      10	   1299996 ns/op	 1192000 B/op	   10000 allocs/op
BenchmarkRaftTickLive   	      10	   1216683 ns/op
PASS
`
	benches, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	if benches[0].Name != "RaftTickNil" || benches[0].NsPerOp != 1299996 || benches[0].AllocsPerOp != 10000 {
		t.Errorf("first line parsed as %+v", benches[0])
	}
	if benches[1].Name != "RaftTickLive" || benches[1].NsPerOp != 1216683 {
		t.Errorf("second line parsed as %+v", benches[1])
	}
}

func TestCheckPairs(t *testing.T) {
	cur := []Benchmark{
		{Name: "TickNil", NsPerOp: 1000},
		{Name: "TickLive", NsPerOp: 1040},
		{Name: "RoundNil", NsPerOp: 500},
		{Name: "RoundLive", NsPerOp: 600},
	}
	if err := checkPairs("TickLive=TickNil", cur, 0.05); err != nil {
		t.Errorf("4%% overhead within a 5%% budget failed: %v", err)
	}
	if err := checkPairs("RoundLive=RoundNil", cur, 0.05); err == nil {
		t.Error("20% overhead passed a 5% budget")
	}
	if err := checkPairs("TickLive=TickNil,RoundLive=RoundNil", cur, 0.05); err == nil {
		t.Error("one exceeded pair in a list passed")
	}
	// A pair member missing from the run must fail, not silently skip.
	if err := checkPairs("TickLive=Gone", cur, 0.05); err == nil {
		t.Error("missing baseline passed")
	}
	if err := checkPairs("garbage", cur, 0.05); err == nil {
		t.Error("malformed spec passed")
	}
	// A faster instrumented variant is always within budget.
	if err := checkPairs("RoundNil=RoundLive", cur, 0.05); err != nil {
		t.Errorf("ratio < 1 failed: %v", err)
	}
	// Several runs piped together: the i-th A meets the i-th B, and one
	// run within budget clears the pair — not a fast A from one run
	// against a slow B from another.
	again := append(cur[:len(cur):len(cur)],
		Benchmark{Name: "RoundNil", NsPerOp: 700}, Benchmark{Name: "RoundLive", NsPerOp: 720})
	if err := checkPairs("RoundLive=RoundNil", again, 0.05); err != nil {
		t.Errorf("second run at 2.9%% did not clear the pair: %v", err)
	}
	again[len(again)-1].NsPerOp = 800
	if err := checkPairs("RoundLive=RoundNil", again, 0.05); err == nil {
		t.Error("600/500 and 800/700 passed: runs were mixed (600/700)")
	}
}

func TestCheckPairsBudgetAndMetric(t *testing.T) {
	cur := []Benchmark{
		{Name: "EncWire", NsPerOp: 400, AllocsPerOp: 0, BytesPerOp: 200},
		{Name: "EncGob", NsPerOp: 1000, AllocsPerOp: 50, BytesPerOp: 1000},
		{Name: "Pooled", NsPerOp: 800, AllocsPerOp: 20, BytesPerOp: 900},
		{Name: "Fresh", NsPerOp: 900, AllocsPerOp: 100},
		{Name: "ZeroBase", NsPerOp: 100, AllocsPerOp: 0},
	}
	// Absolute budget: 0.4× passes @0.5, fails @0.3.
	if err := checkPairs("EncWire=EncGob@0.5", cur, 0.05); err != nil {
		t.Errorf("0.4 ratio failed a 0.5 budget: %v", err)
	}
	if err := checkPairs("EncWire=EncGob@0.3", cur, 0.05); err == nil {
		t.Error("0.4 ratio passed a 0.3 budget")
	}
	// allocs metric: 20/100 = 0.2 passes @0.5; 20/50 = 0.4 fails @0.3.
	if err := checkPairs("allocs:Pooled=Fresh@0.5", cur, 0.05); err != nil {
		t.Errorf("0.2 allocs ratio failed a 0.5 budget: %v", err)
	}
	if err := checkPairs("allocs:Pooled=EncGob@0.3", cur, 0.05); err == nil {
		t.Error("0.4 allocs ratio passed a 0.3 budget")
	}
	// Metric prefix without budget keeps the default 1+tol ceiling.
	if err := checkPairs("allocs:EncWire=ZeroBase", cur, 0.05); err != nil {
		t.Errorf("0 vs 0 allocs failed: %v", err)
	}
	if err := checkPairs("allocs:Pooled=ZeroBase", cur, 0.05); err == nil {
		t.Error("nonzero allocs passed against a zero-alloc baseline")
	}
	// bytes metric: 200/1000 = 0.2 passes @0.25; 900/1000 = 0.9 fails it.
	if err := checkPairs("bytes:EncWire=EncGob@0.25", cur, 0.05); err != nil {
		t.Errorf("0.2 bytes ratio failed a 0.25 budget: %v", err)
	}
	if err := checkPairs("bytes:Pooled=EncGob@0.25", cur, 0.05); err == nil {
		t.Error("0.9 bytes ratio passed a 0.25 budget")
	}
	// Mixed list: one bad entry still fails the whole check.
	if err := checkPairs("EncWire=EncGob@0.5,allocs:Pooled=EncGob@0.3", cur, 0.05); err == nil {
		t.Error("list with one exceeded entry passed")
	}
	// Malformed variants.
	for _, bad := range []string{"acc:EncWire=EncGob", "EncWire=EncGob@", "EncWire=EncGob@-1", "ns:=EncGob"} {
		if err := checkPairs(bad, cur, 0.05); err == nil {
			t.Errorf("malformed entry %q passed", bad)
		}
	}
}
