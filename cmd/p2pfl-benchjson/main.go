// Command p2pfl-benchjson turns `go test -bench` output into versioned
// JSON snapshots and guards against performance regressions:
//
//	go test -run '^$' -bench <tier1> -benchmem ./... | p2pfl-benchjson -write
//	go test -run '^$' -bench <tier1> -benchmem ./... | p2pfl-benchjson -check
//
// -write stores the parsed results as BENCH_<n>.json at the next free
// index (BENCH_1.json, BENCH_2.json, …), stamped with the date, git
// commit, Go version and GOMAXPROCS, so the repo accumulates a
// machine-readable performance history alongside the code.
//
// -check compares the piped results against the latest snapshot and
// exits non-zero if any benchmark present in both regressed in ns/op by
// more than -tolerance (default 20%). Benchmarks only on one side are
// reported but never fail the check, so adding or retiring benchmarks
// doesn't break CI.
//
// -pairs adds same-run ratio checks. Each entry is
//
//	[metric:]A=B[@budget]
//
// The plain form "A=B" asserts ns/op(A) stays within -pair-tolerance
// (default 5%) of ns/op(B) in the CURRENT run. Unlike the snapshot
// comparison, machine-speed drift cancels out, so this is the right
// guard for "instrumented vs uninstrumented" overhead contracts (e.g.
// RaftTickLive=RaftTickNil). "@budget" replaces the implicit 1+tol
// ceiling with an absolute ratio: "EncodeModelWire=EncodeModelGob@0.5"
// demands the wire codec run in at most half the gob time. A metric
// prefix selects what is compared — "allocs:" gates allocs/op instead
// of ns/op, e.g. "allocs:DivideParallel/dim1e6=DivideSerial/dim1e6@1.0"
// demands the parallel kernel allocate no more often, and "bytes:"
// gates B/op — encode benchmarks that b.ReportMetric their frame size as
// B/op turn this into an exact wire-size contract, e.g.
// "bytes:EncodeDeltaQuant8=EncodeDeltaFloat64@0.25". A pair with
// either member missing from the run fails the check — a silently
// skipped gate is a broken gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the on-disk BENCH_<n>.json document.
type Snapshot struct {
	Date       string      `json:"date"`
	GitSHA     string      `json:"git_sha,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkMatMul-4   100   12345 ns/op   678 B/op   9 allocs/op   1.2 acc-%
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: strings.TrimPrefix(m[1], "Benchmark"), Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, b)
	}
	return out, r.Err()
}

// snapshots returns the existing BENCH_<n>.json files in dir, sorted by
// index, along with the largest index found.
func snapshots(dir string) (paths []string, maxIdx int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	idx := map[int]string{}
	var order []int
	for _, e := range entries {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		idx[n] = filepath.Join(dir, e.Name())
		order = append(order, n)
		if n > maxIdx {
			maxIdx = n
		}
	}
	sort.Ints(order)
	for _, n := range order {
		paths = append(paths, idx[n])
	}
	return paths, maxIdx, nil
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func check(latest string, current []Benchmark, tolerance float64) error {
	data, err := os.ReadFile(latest)
	if err != nil {
		return err
	}
	var prev Snapshot
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", latest, err)
	}
	prevBy := map[string]Benchmark{}
	for _, b := range prev.Benchmarks {
		prevBy[b.Name] = b
	}
	failed := 0
	for _, b := range current {
		p, ok := prevBy[b.Name]
		if !ok {
			fmt.Printf("  new       %-40s %.0f ns/op (no baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		delete(prevBy, b.Name)
		ratio := b.NsPerOp / p.NsPerOp
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSED"
			failed++
		}
		fmt.Printf("  %-9s %-40s %.0f → %.0f ns/op (%+.1f%%)\n",
			status, b.Name, p.NsPerOp, b.NsPerOp, 100*(ratio-1))
	}
	for name := range prevBy {
		fmt.Printf("  missing   %-40s (in %s but not in this run)\n", name, filepath.Base(latest))
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs %s", failed, 100*tolerance, filepath.Base(latest))
	}
	fmt.Printf("no regressions beyond %.0f%% vs %s\n", 100*tolerance, filepath.Base(latest))
	return nil
}

// pairSpec is one parsed -pairs entry: [metric:]A=B[@budget].
type pairSpec struct {
	metric string // "ns" (default), "allocs" or "bytes"
	a, b   string
	budget float64 // max allowed metric(A)/metric(B)
}

// parsePair parses one -pairs entry. defaultBudget applies when no
// explicit @budget is given.
func parsePair(entry string, defaultBudget float64) (pairSpec, error) {
	p := pairSpec{metric: "ns", budget: defaultBudget}
	s := strings.TrimSpace(entry)
	if metric, rest, ok := strings.Cut(s, ":"); ok {
		switch metric {
		case "ns", "allocs", "bytes":
			p.metric = metric
		default:
			return p, fmt.Errorf("bad -pairs entry %q: unknown metric %q (want ns, allocs or bytes)", entry, metric)
		}
		s = rest
	}
	if body, budget, ok := strings.Cut(s, "@"); ok {
		v, err := strconv.ParseFloat(budget, 64)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("bad -pairs entry %q: budget %q is not a positive number", entry, budget)
		}
		p.budget = v
		s = body
	}
	var ok bool
	p.a, p.b, ok = strings.Cut(s, "=")
	if !ok || p.a == "" || p.b == "" {
		return p, fmt.Errorf("bad -pairs entry %q: want [metric:]Name=Baseline[@budget]", entry)
	}
	return p, nil
}

func (p pairSpec) value(b Benchmark) float64 {
	switch p.metric {
	case "allocs":
		return b.AllocsPerOp
	case "bytes":
		return b.BytesPerOp
	}
	return b.NsPerOp
}

// checkPairs enforces same-run ratio contracts parsed from
// "[metric:]A=B[@budget],...": metric(A)/metric(B) must not exceed the
// budget (default 1+tolerance).
func checkPairs(spec string, current []Benchmark, tolerance float64) error {
	byName := map[string]Benchmark{}
	for _, b := range current {
		byName[b.Name] = b
	}
	failed := 0
	for _, entry := range strings.Split(spec, ",") {
		p, err := parsePair(entry, 1+tolerance)
		if err != nil {
			return err
		}
		a, okA := byName[p.a]
		base, okB := byName[p.b]
		if !okA || !okB {
			fmt.Printf("  MISSING   %s=%s: benchmark not in this run\n", p.a, p.b)
			failed++
			continue
		}
		va, vb := p.value(a), p.value(base)
		unit := "ns/op"
		switch p.metric {
		case "allocs":
			unit = "allocs/op"
		case "bytes":
			unit = "B/op"
		}
		if vb == 0 {
			// Ratio is undefined; the contract degenerates to "A must be
			// zero too" (a zero-alloc baseline gates a zero-alloc subject).
			status := "ok"
			if va != 0 {
				status = "EXCEEDED"
				failed++
			}
			fmt.Printf("  %-9s %s=%v vs zero-%s baseline %s\n", status, p.a, va, unit, p.b)
			continue
		}
		ratio := va / vb
		status := "ok"
		if ratio > p.budget {
			status = "EXCEEDED"
			failed++
		}
		fmt.Printf("  %-9s %s / %s = %.3f %s ratio (budget %.3f)\n",
			status, p.a, p.b, ratio, unit, p.budget)
	}
	if failed > 0 {
		return fmt.Errorf("%d pair(s) exceeded their same-run ratio budget", failed)
	}
	return nil
}

func main() {
	var (
		write     = flag.Bool("write", false, "write results to the next free BENCH_<n>.json")
		checkFlag = flag.Bool("check", false, "compare results against the latest BENCH_<n>.json")
		dir       = flag.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression for -check")
		pairs     = flag.String("pairs", "", "same-run ratio contracts 'A=B,C=D' checked with -check")
		pairTol   = flag.Float64("pair-tolerance", 0.05, "allowed fractional ns/op excess of A over B for -pairs")
	)
	flag.Parse()
	if *write == *checkFlag {
		fmt.Fprintln(os.Stderr, "usage: exactly one of -write or -check (benchmark output on stdin)")
		os.Exit(2)
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	benches, err := parse(scanner)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "no benchmark lines found on stdin")
		os.Exit(1)
	}

	paths, maxIdx, err := snapshots(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *checkFlag {
		if len(paths) == 0 {
			fmt.Fprintf(os.Stderr, "no BENCH_<n>.json snapshot in %s to check against\n", *dir)
			os.Exit(1)
		}
		// Run both checks before exiting so a snapshot regression never
		// hides the pair-gate verdict (and vice versa).
		checkErr := check(paths[len(paths)-1], benches, *tolerance)
		var pairErr error
		if *pairs != "" {
			pairErr = checkPairs(*pairs, benches, *pairTol)
		}
		for _, err := range []error{checkErr, pairErr} {
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if checkErr != nil || pairErr != nil {
			os.Exit(1)
		}
		return
	}

	snap := Snapshot{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", maxIdx+1))
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", out, len(benches))
}
