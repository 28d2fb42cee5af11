// Command bench is the repo's round benchmark: six workloads driven
// through the public functions of internal/*, each round checked against a
// plaintext oracle and the paper's closed-form byte counts, with seven
// end-to-end metrics and a per-layer ledger measured from outside.
//
//	go run ./bench                                   full set, table on stdout
//	go run ./bench -selfcheck                        full set twice, A/B verdicts
//	go run ./bench -workload agg_mem -seed 3 -seconds 10 -trace 0
//
// The last form is the driver's: one run of one workload whose last line
// of output is a JSON object. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's JSON line")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "nominal measured seconds per run; scales the fixed round counts")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "full set: write the result JSON here")
		traceOut     = flag.String("trace-out", "", "write the recorded spans here")
		selfcheck    = flag.Bool("selfcheck", false, "run the full set twice (A forwards, B backwards) and compare against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *traceOut)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	default:
		err = runAll(*seed, *seconds, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lineOf renders a run as the contract's object: every end-to-end metric
// for an untraced run, every per-layer metric (0 where a layer does not
// run on the workload) for a traced one.
func lineOf(res *result) driverLine {
	declared := endToEnd
	if res.Traced {
		declared = perLayer
	}
	line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, m := range declared {
		line.Metrics[m.Name] = driverValue{res.Metrics[m.Name], m.Unit}
	}
	return line
}

// runOne is the driver's entry: one run, one JSON line last on stdout.
// A missed failover round is the open-loop schedule working as designed and
// is reported through round_success_ratio, not as a failed operation.
func runOne(name string, seed int64, seconds int, traced bool, traceOut string) error {
	res, err := runWorkload(name, seed, fullSizes(name, seconds), traced)
	if err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "bench:", e)
	}
	if traced && traceOut != "" {
		if err := writeJSON(traceOut, []traceFile{res.spans.export(name)}); err != nil {
			return err
		}
	}
	if !traced {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: wall round p50 %.6g ms, run speed %.4f\n", name, seed, res.Metrics["round.p50_ms"], res.Metrics["round.ref_speed"])
	}
	line := lineOf(res)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d rounds failed their oracle", name, res.Failed, res.Attempted)
	}
	return nil
}

// report is the full set's result file.
type report struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Workloads []workloadReport  `json:"workloads"`
	Units     map[string]string `json:"units"`
	Sizes     map[string]sizes  `json:"sizes"`
	Why       map[string]string `json:"why"`
}

type workloadReport struct {
	Name     string  `json:"name"`
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func host() hostInfo {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha}
}

// runAll runs every workload untraced then traced, prints both tables and
// fails on any oracle or ledger failure.
func runAll(seed int64, seconds int, out, traceOut string) error {
	rep := report{Host: host(), Seed: seed, Seconds: seconds, Units: map[string]string{}, Sizes: map[string]sizes{}, Why: map[string]string{}}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		rep.Units[m.Name] = m.Unit
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s git=%s seed=%d\n", rep.Host.NProc, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.GitSHA, seed)
	var traces []traceFile
	var failed []string
	for _, wl := range workloadWhy {
		sz := fullSizes(wl.Name, seconds)
		rep.Sizes[wl.Name], rep.Why[wl.Name] = sz, wl.Why
		wr := workloadReport{Name: wl.Name}
		var err error
		if wr.EndToEnd, err = runWorkload(wl.Name, seed, sz, false); err != nil {
			return err
		}
		if wr.PerLayer, err = runWorkload(wl.Name, seed, sz, true); err != nil {
			return err
		}
		for _, r := range []*result{wr.EndToEnd, wr.PerLayer} {
			if !r.correct() {
				failed = append(failed, fmt.Sprintf("%s: %v", wl.Name, r.Errors))
			}
		}
		if traceOut != "" {
			traces = append(traces, wr.PerLayer.spans.export(wl.Name))
		}
		wr.PerLayer.spans = nil // release the spans before the next workload
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(wr)
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, traces); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("oracle or ledger failures:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

func printWorkload(wr workloadReport) {
	e, p := wr.EndToEnd, wr.PerLayer
	fmt.Printf("\n== %s  (%d rounds, %d missed, %d failed; traced %d rounds)\n", wr.Name, e.Attempted, e.Missed, e.Failed, p.Attempted)
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %16.6g %s\n", m.Name, e.Metrics[m.Name], m.Unit)
	}
	fmt.Printf("  (wall: round p50 %.6g ms; run speed %.4f, CPU times x its square root)\n", e.Metrics["round.p50_ms"], e.Metrics["round.ref_speed"])
	fmt.Println("  -- per-layer ledger (per traced round; zero rows left out)")
	for _, m := range perLayer {
		if v := p.Metrics[m.Name]; v != 0 {
			fmt.Printf("  %-34s %16.6g %s\n", m.Name, v, m.Unit)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-check needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs the full untraced set twice in one process, A in
// workload order and B in reverse so that order effects land on both
// sides, and prints for every (metric, workload) both values, B÷A, and
// whether B is within the metric's bound of A. Same code on both sides
// means any pair outside its bound is noise wider than the bound:
// "unresolved", which fails the check.
func runSelfcheck(seed int64, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repo root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	n := len(workloadWhy)
	a, b := make([]*result, n), make([]*result, n)
	for i := 0; i < n; i++ {
		if a[i], err = runWorkload(workloadWhy[i].Name, seed, fullSizes(workloadWhy[i].Name, seconds), false); err != nil {
			return err
		}
	}
	for i := n - 1; i >= 0; i-- {
		if b[i], err = runWorkload(workloadWhy[i].Name, seed, fullSizes(workloadWhy[i].Name, seconds), false); err != nil {
			return err
		}
	}
	fmt.Printf("%-22s %-13s %14s %14s %9s  %s\n", "metric", "workload", "A", "B", "B/A", "verdict (bound)")
	unresolved := 0
	for _, m := range spec.EndToEnd {
		for i, wl := range workloadWhy {
			va, vb := a[i].Metrics[m.Name], b[i].Metrics[m.Name]
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || !a[i].correct() || !b[i].correct() {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-22s %-13s %14.6g %14.6g %9.4f  %s (%.3g of A=%.6g)\n", m.Name, wl.Name, va, vb, vb/va, verdict, m.Bound, va)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d (metric, workload) pairs unresolved", unresolved)
	}
	return nil
}
