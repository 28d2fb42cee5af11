package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's metric
// tables in step and inside the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || s.RunSeconds != defaultSeconds || len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Fatalf("size %d, run_seconds %d, paths %v", len(raw), s.RunSeconds, s.Paths)
	}
	// The driver gates every workload of the program but ungated, in the
	// program's order.
	var gated []struct{ Name, Why string }
	for _, w := range workloadWhy {
		if w.Name != ungated {
			gated = append(gated, w)
		}
	}
	if n := len(s.Workloads); n < 2 || n > 8 || n != len(gated) {
		t.Fatalf("%d workloads declared, program gates %d", n, len(gated))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range s.Workloads {
		unique(w.Name)
		if w.Name != gated[i].Name || w.Why != gated[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q differs from the program's %q, or its why is too long", i, w.Name, gated[i].Name)
		}
	}
	same := func(kind string, declared []specMetric, have []metric, limit int, bounded bool) {
		t.Helper()
		if len(declared) != len(have) || len(declared) < 1 || len(declared) > limit {
			t.Fatalf("%s: %d declared, program has %d, limit %d", kind, len(declared), len(have), limit)
		}
		for i, d := range declared {
			unique(d.Name)
			if d.Name != have[i].Name || d.Unit != have[i].Unit || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %d: declared %s [%s], program has %s [%s]", kind, i, d.Name, d.Unit, have[i].Name, have[i].Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd, 16, true)
	same("per_layer", s.PerLayer, perLayer, 128, false)
	if s.EndToEnd[0].Name != "setup_s" || s.EndToEnd[0].Unit != "s" || s.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be declared in seconds, lower is better")
	}
}

// exact reports whether a per-layer metric is a pure count, which two
// same-seed runs must reproduce to the digit.
func exact(name string) bool {
	return strings.HasSuffix(name, "_calls") || strings.Contains(name, "_per_round") || strings.HasSuffix(name, "_per_crash") ||
		name == "costmodel.bytes_ratio" || name == "cluster.recovery_vms_p90"
}

// TestSmoke runs every workload at smoke size through the benchmark's own
// code path, twice with the same seed.
func TestSmoke(t *testing.T) {
	for _, wl := range workloadWhy {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			sz := smokeSizes(wl.Name)
			var runs [2][2]*result
			for i := range runs {
				for j, traced := range []bool{false, true} {
					res, err := runWorkload(wl.Name, 7, sz, traced)
					if err != nil {
						t.Fatal(err)
					}
					if !res.correct() || res.Attempted < 1 {
						t.Fatalf("traced=%v: attempted %d, failed %d: %v", traced, res.Attempted, res.Failed, res.Errors)
					}
					runs[i][j] = res
				}
			}
			e2e, layers := runs[0][0], runs[0][1]

			// Every declared metric is printed; no end-to-end metric is 0.
			line := lineOf(e2e)
			for _, m := range endToEnd {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", m.Name, v.Value)
				}
			}
			line = lineOf(layers)
			for _, m := range perLayer {
				v, ok := line.Metrics[m.Name]
				negative := v.Value < 0 && m.Name != "round.trace_overhead_ratio" // noise can make tracing look free
				if !ok || negative || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", m.Name, v.Value)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Error(err)
			}

			// Ledger identity: the rows and the unattributed remainder add
			// up to the traced round.
			lm := layers.Metrics
			sum := lm["round.unattributed_ms"]
			for _, row := range ledgerRows {
				sum += lm[row]
			}
			if wall := lm["round.traced_ms"]; math.Abs(sum-wall) > 0.01*wall+1e-6 {
				t.Errorf("ledger rows sum to %.6f ms, traced round is %.6f ms", sum, wall)
			}
			if un, wall := lm["round.unattributed_ms"], lm["round.traced_ms"]; un > maxUnattributed*wall {
				t.Errorf("unattributed %.6f of %.6f ms", un, wall)
			}
			if lm["costmodel.bytes_ratio"] != 1 {
				t.Errorf("costmodel.bytes_ratio = %v", lm["costmodel.bytes_ratio"])
			}

			for _, row := range layerRows[wl.Name].present {
				if lm[row] <= 0 {
					t.Errorf("%s = %v, want > 0", row, lm[row])
				}
			}
			for _, row := range layerRows[wl.Name].absent {
				if lm[row] != 0 {
					t.Errorf("%s = %v, want 0", row, lm[row])
				}
			}

			// Same seed, same counts.
			for _, name := range []string{"wire_bytes_per_round", "round_success_ratio", "final_acc", "recovery_vms_mean"} {
				if a, b := e2e.Metrics[name], runs[1][0].Metrics[name]; a != b {
					t.Errorf("%s: %v then %v with the same seed", name, a, b)
				}
			}
			for _, m := range perLayer {
				if a, b := lm[m.Name], runs[1][1].Metrics[m.Name]; exact(m.Name) && a != b {
					t.Errorf("%s: %v then %v with the same seed", m.Name, a, b)
				}
			}
		})
	}
}

// layerRows pins which rows a workload must and must not have, at smoke
// size: the presence of a layer, not its share.
var layerRows = map[string]struct{ present, absent []string }{
	"train":        {[]string{"fl.train_ms", "nn.forward_ms", "cluster.runfor_ms", "dataset.generate_ms"}, []string{"compress.compress_ms", "wire.frames_per_round"}},
	"agg_mem":      {[]string{"secretshare.divide_ms", "fl.fedavg_ms", "core.self_ms", "sac.recovered_per_round"}, []string{"compress.calls_per_round", "wire.frames_per_round", "transport.send_ms", "cluster.runfor_ms"}},
	"agg_tcp":      {[]string{"transport.send_ms.share", "transport.send_ms.broadcast", "wire.frames_per_round", "sac.run_ms", "costmodel.roundtime_ratio"}, []string{"core.aggregate_ms", "compress.compress_ms", "sac.recovered_per_round"}},
	"agg_compress": {[]string{"compress.compress_ms", "compress.ratio", "core.aggregate_ms"}, []string{"wire.frames_per_round", "sac.recovered_per_round"}},
	"xlayer":       {[]string{"secretshare.divide_calls", "core.subgroup_sacs_per_round"}, []string{"fl.fedavg_ms", "cluster.runfor_ms", "compress.compress_ms"}},
	"failover":     {[]string{"cluster.runfor_ms", "raft.msgs_per_round", "raft.elections_per_crash", "cluster.recovery_vms_p90"}, []string{"fl.train_ms", "transport.send_ms"}},
}

func TestTracerSelfTimeIsUnionOfChildren(t *testing.T) {
	tr := &tracer{on: true, names: []spanName{{"a", "root"}, {"b", "leaf"}}}
	// A 100 ns root with two overlapping children covering [10,60].
	tr.spans = []span{
		{Start: 0, End: 100, Parent: -1, Name: 0},
		{Start: 10, End: 40, Parent: 0, Name: 1},
		{Start: 30, End: 60, Parent: 0, Name: 1},
	}
	tot := tr.totals()
	if tot.SelfNs["a.root"] != 50 || tot.SelfNs["b.leaf"] != 60 || tot.DurNs["a.root"] != 100 || tot.WallNs != 100 || tot.Calls["b.leaf"] != 2 {
		t.Fatalf("%+v", tot)
	}
}
