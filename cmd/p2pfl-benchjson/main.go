// Command p2pfl-benchjson checks same-run ratio contracts on `go test
// -bench` output:
//
//	go test -run '^$' -bench <pattern> -benchmem ./... | p2pfl-benchjson -pairs <pairs>
//
// It compares benchmarks of ONE run with each other and never with a
// stored snapshot: on a shared host ns/op drifts by tens of percent
// between runs of unchanged code, and within a run that drift cancels.
// Several runs may be piped in one after the other; a pair then fails
// only if it exceeds its budget in every one of them. End-to-end
// performance is measured by bench/ (BENCHMARK.json).
//
// Each -pairs entry "A=B" asserts ns/op(A) stays within -pair-tolerance
// (default 5%) of ns/op(B), which is the guard for "instrumented vs
// uninstrumented" overhead contracts (e.g. RaftTickLive=RaftTickNil). A
// pair with either member missing from the run fails the check — a
// silently skipped gate is a broken gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name    string
	NsPerOp float64
}

// benchLine matches e.g.
//
//	BenchmarkMatMul-4   100   12345 ns/op   678 B/op   9 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		b := Benchmark{Name: strings.TrimPrefix(m[1], "Benchmark")}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				b.NsPerOp = v
			}
		}
		out = append(out, b)
	}
	return out, r.Err()
}

// checkPairs enforces same-run ratio contracts parsed from "A=B,...":
// ns/op(A)/ns/op(B) must not exceed 1+tolerance. When the input holds
// several runs (the same names again, one block per process), the i-th
// A is compared with the i-th B and a pair fails only if it exceeds its
// budget in every run: on a shared host one run's ratio moves by ±10%
// on unchanged code, a broken contract exceeds every time.
func checkPairs(spec string, current []Benchmark, tolerance float64) error {
	runs := map[string][]float64{} // name → ns/op, one per run
	for _, b := range current {
		runs[b.Name] = append(runs[b.Name], b.NsPerOp)
	}
	budget := 1 + tolerance
	failed := 0
	for _, entry := range strings.Split(spec, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || a == "" || b == "" {
			return fmt.Errorf("bad -pairs entry %q: want Name=Baseline", entry)
		}
		as, bases := runs[a], runs[b]
		n := min(len(as), len(bases))
		if n == 0 {
			fmt.Printf("  MISSING   %s=%s: benchmark not in this run\n", a, b)
			failed++
			continue
		}
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			best = min(best, as[i]/bases[i])
		}
		status := "ok"
		if best > budget {
			status = "EXCEEDED"
			failed++
		}
		fmt.Printf("  %-9s %s / %s = %.3f ns/op ratio (budget %.3f, best of %d)\n",
			status, a, b, best, budget, n)
	}
	if failed > 0 {
		return fmt.Errorf("%d pair(s) exceeded their same-run ratio budget", failed)
	}
	return nil
}

func main() {
	var (
		pairs   = flag.String("pairs", "", "same-run ratio contracts 'A=B,...'")
		pairTol = flag.Float64("pair-tolerance", 0.05, "allowed fractional excess of A's ns/op over B's")
	)
	flag.Parse()
	if *pairs == "" {
		fmt.Fprintln(os.Stderr, "usage: p2pfl-benchjson -pairs A=B,... (benchmark output on stdin)")
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
	if err := checkPairs(*pairs, benches, *pairTol); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
