// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. VI) and analysis (Sec. VII). Each driver
// returns a printable result and is shared by the CLI
// (cmd/p2pfl-experiments) and the benchmark harness (bench_test.go).
//
// Scale knobs: the paper trains the 1.25M-parameter CNN for 1000 rounds
// and runs 1000 recovery trials. Params lets CI-scale runs use the same
// code paths at reduced rounds/trials; the communication-cost figures
// (13, 14) are exact at any scale because they combine closed forms with
// byte-accounted aggregation runs.
package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/telemetry"
)

// Params scales the experiment drivers.
type Params struct {
	// Rounds of federated training for Figs. 6–9 (paper: 1000).
	Rounds int
	// MaxN bounds the Fig. 14 sweep over the peer count N (10, 20, …,
	// MaxN); the peer counts of Figs. 6–9 are fixed by the paper.
	MaxN int
	// Trials per timeout setting for Figs. 10–12 (paper: 1000).
	Trials int
	// Seed makes every driver deterministic.
	Seed int64
	// Telemetry, when not nil, accumulates the raft and cluster
	// counters and trace of every recovery trial (Figs. 10–12, ext5).
	Telemetry *telemetry.Registry
}

// Defaults fills zero fields with CI-scale values.
func (p Params) Defaults() Params {
	if p.Rounds <= 0 {
		p.Rounds = 120
	}
	if p.Trials <= 0 {
		p.Trials = 100
	}
	if p.MaxN <= 0 {
		p.MaxN = 50
	}
	return p
}

// Result is a printable experiment outcome.
type Result interface {
	// Name returns the table/figure identifier (e.g. "fig10").
	Name() string
	// Print renders the paper-style rows.
	Print(w io.Writer)
}

// table1Result is the evaluation environment, standing in for the paper's
// Table I (machine specification).
type table1Result struct {
	GoVersion string
	OS, Arch  string
	CPUs      int
}

// table1 collects the runtime environment.
func table1() *table1Result {
	return &table1Result{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// Name implements Result.
func (r *table1Result) Name() string { return "tab1" }

// Print implements Result.
func (r *table1Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table I — evaluation environment (this reproduction)")
	fmt.Fprintf(w, "  Go        %s\n", r.GoVersion)
	fmt.Fprintf(w, "  OS/Arch   %s/%s\n", r.OS, r.Arch)
	fmt.Fprintf(w, "  CPUs      %d\n", r.CPUs)
	fmt.Fprintln(w, "  Network   discrete-event simulation, 15 ms one-way latency")
	fmt.Fprintln(w, "  Datasets  synthetic MNIST/CIFAR-10 substitutes (see DESIGN.md §3)")
}
