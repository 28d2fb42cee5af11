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
// Each -pairs entry is
//
//	[metric:]A=B[@budget]
//
// The plain form "A=B" asserts ns/op(A) stays within -pair-tolerance
// (default 5%) of ns/op(B), which is the guard for "instrumented vs
// uninstrumented" overhead contracts (e.g. RaftTickLive=RaftTickNil).
// "@budget" replaces the implicit 1+tol ceiling with an absolute ratio:
// "DecodeFast=DecodeRef@0.5" demands the first run in at most half the
// second's time. A metric prefix selects what is compared —
// "allocs:" gates allocs/op and "bytes:" gates B/op instead of ns/op. A
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
	Name        string
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
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
		b := Benchmark{Name: strings.TrimPrefix(m[1], "Benchmark")}
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
			}
		}
		out = append(out, b)
	}
	return out, r.Err()
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

func (p pairSpec) unit() string {
	switch p.metric {
	case "allocs":
		return "allocs/op"
	case "bytes":
		return "B/op"
	}
	return "ns/op"
}

// ratio is metric(A)/metric(B). Against a zero baseline it degenerates
// to "A must be zero too" (a zero-alloc baseline gates a zero-alloc
// subject).
func ratio(va, vb float64) float64 {
	if vb != 0 {
		return va / vb
	}
	if va == 0 {
		return 0
	}
	return math.Inf(1)
}

// checkPairs enforces same-run ratio contracts parsed from
// "[metric:]A=B[@budget],...": metric(A)/metric(B) must not exceed the
// budget (default 1+tolerance). When the input holds several runs (the
// same names again, one block per process), the i-th A is compared with
// the i-th B and a pair fails only if it exceeds its budget in every
// run: on a shared host one run's ratio moves by ±10% on unchanged code,
// a broken contract exceeds every time.
func checkPairs(spec string, current []Benchmark, tolerance float64) error {
	runs := map[string][]Benchmark{}
	for _, b := range current {
		runs[b.Name] = append(runs[b.Name], b)
	}
	failed := 0
	for _, entry := range strings.Split(spec, ",") {
		p, err := parsePair(entry, 1+tolerance)
		if err != nil {
			return err
		}
		as, bases := runs[p.a], runs[p.b]
		n := min(len(as), len(bases))
		if n == 0 {
			fmt.Printf("  MISSING   %s=%s: benchmark not in this run\n", p.a, p.b)
			failed++
			continue
		}
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			best = min(best, ratio(p.value(as[i]), p.value(bases[i])))
		}
		status := "ok"
		if best > p.budget {
			status = "EXCEEDED"
			failed++
		}
		fmt.Printf("  %-9s %s / %s = %.3f %s ratio (budget %.3f, best of %d)\n",
			status, p.a, p.b, best, p.unit(), p.budget, n)
	}
	if failed > 0 {
		return fmt.Errorf("%d pair(s) exceeded their same-run ratio budget", failed)
	}
	return nil
}

func main() {
	var (
		pairs   = flag.String("pairs", "", "same-run ratio contracts '[metric:]A=B[@budget],...'")
		pairTol = flag.Float64("pair-tolerance", 0.05, "allowed fractional excess of A over B for entries without @budget")
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
