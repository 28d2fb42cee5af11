// Command p2pfl-sim runs custom crash scenarios on the virtual-time
// two-layer Raft — the machinery behind Figs. 10–12 with every knob
// exposed:
//
//	p2pfl-sim -m 5 -n 5 -t 100 -latency 15ms -scenario fedavg-leader
//	p2pfl-sim -scenario subgroup-leader -trials 200
//	p2pfl-sim -scenario follower -trials 50
//
// Scenarios:
//
//	subgroup-leader  crash a (non-FedAvg) subgroup leader; measure the
//	                 election and the FedAvg-layer rejoin (Figs. 10–11)
//	fedavg-leader    crash the FedAvg leader; measure full recovery (Fig. 12)
//	follower         crash a subgroup follower; confirm nothing happens
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

func main() {
	var (
		m        = flag.Int("m", 5, "number of subgroups")
		n        = flag.Int("n", 5, "peers per subgroup")
		tMs      = flag.Int("t", 100, "election timeout T (ms); timeouts ~ U(T, 2T)")
		latency  = flag.Duration("latency", 15*time.Millisecond, "one-way link latency")
		trials   = flag.Int("trials", 100, "number of independent trials")
		seed     = flag.Int64("seed", 1, "base random seed")
		scenario = flag.String("scenario", "subgroup-leader", "subgroup-leader | fedavg-leader | follower")
		telemOut = flag.String("telemetry", "", "write the aggregate telemetry snapshot as JSON to this file ('-' for stdout)")
	)
	flag.Parse()
	switch *scenario {
	case experiments.CrashSubgroupLeader, experiments.CrashFedAvgLeader, experiments.CrashFollower:
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	// One registry accumulates across all trials; its clock follows each
	// trial's virtual sim, so a fixed -seed yields byte-identical dumps.
	var reg *telemetry.Registry
	if *telemOut != "" {
		reg = telemetry.New()
	}

	var elect, rejoin []float64
	for trial := 0; trial < *trials; trial++ {
		e, j, err := experiments.RecoveryTrial{
			M: *m, N: *n, TMs: *tMs,
			Latency:   simnet.Duration(latency.Microseconds()),
			Seed:      *seed + int64(trial),
			Telemetry: reg,
		}.Run(*scenario)
		if err != nil {
			log.Fatalf("trial %d: %v", trial, err)
		}
		if e >= 0 {
			elect = append(elect, e)
		}
		if j >= 0 {
			rejoin = append(rejoin, j)
		}
	}
	fmt.Printf("scenario %s: %d trials, N=%d (m=%d × n=%d), T=%dms, latency=%v\n",
		*scenario, *trials, *m**n, *m, *n, *tMs, *latency)
	if len(elect) > 0 {
		fmt.Printf("  new leader elected: %s\n", metrics.Summarize(elect))
	}
	if len(rejoin) > 0 {
		fmt.Printf("  FedAvg rejoin done: %s\n", metrics.Summarize(rejoin))
	}
	if *scenario == experiments.CrashFollower {
		fmt.Println("  follower crashes are absorbed: no election, no rejoin (Sec. V-A2)")
	}
	if *telemOut != "" {
		if err := writeTelemetry(*telemOut, reg); err != nil {
			log.Fatalf("write -telemetry %s: %v", *telemOut, err)
		}
	}
}

// writeTelemetry dumps the registry snapshot to path ('-' = stdout).
func writeTelemetry(path string, reg *telemetry.Registry) error {
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
