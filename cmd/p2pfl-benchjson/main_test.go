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
	if benches[0].Name != "RaftTickNil" || benches[0].NsPerOp != 1299996 {
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
	for _, bad := range []string{"garbage", "TickLive=", "=TickNil"} {
		if err := checkPairs(bad, cur, 0.05); err == nil {
			t.Errorf("malformed entry %q passed", bad)
		}
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

// The [metric:] prefix and @budget suffix are gone: an entry still
// written that way names no benchmark of the run, so it fails the check
// instead of passing as a gate that compares nothing.
func TestCheckPairsBudgetAndMetric(t *testing.T) {
	cur := []Benchmark{
		{Name: "EncWire", NsPerOp: 400},
		{Name: "EncGob", NsPerOp: 1000},
	}
	if err := checkPairs("EncWire=EncGob", cur, 0.05); err != nil {
		t.Fatalf("0.4 ratio failed: %v", err)
	}
	for _, old := range []string{"EncWire=EncGob@0.5", "allocs:EncWire=EncGob", "bytes:EncWire=EncGob@0.25", "ns:EncWire=EncGob"} {
		if err := checkPairs(old, cur, 0.05); err == nil {
			t.Errorf("retired syntax %q passed", old)
		}
	}
}
