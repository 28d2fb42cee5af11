package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// timeoutRanges are the paper's four U(T, 2T) follower/candidate timeout
// settings, in milliseconds (Sec. VI-B1: T = 50, 100, 150, 200).
var timeoutRanges = []int{50, 100, 150, 200}

// recoveryRow aggregates one timeout setting's trials.
type recoveryRow struct {
	TMs     int // timeouts sampled from U(T, 2T)
	Stats   metrics.Stats
	Samples []float64 // recovery times in ms
}

// recoveryResult holds the rows of one of Figs. 10–12.
type recoveryResult struct {
	Fig   string
	Note  string
	Rows  []recoveryRow
	Paper map[int]float64 // the paper's reported averages, for reference
}

// Name implements Result.
func (r *recoveryResult) Name() string { return r.Fig }

// Print implements Result.
func (r *recoveryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.Fig, r.Note)
	fmt.Fprintf(w, "  %-12s %-10s %-62s %s\n", "timeout", "paper avg", "measured (ms)", "")
	for _, row := range r.Rows {
		paper := "-"
		if v, ok := r.Paper[row.TMs]; ok {
			paper = fmt.Sprintf("%.2f ms", v)
		}
		fmt.Fprintf(w, "  %3d–%3d ms   %-10s %s\n", row.TMs, 2*row.TMs, paper, row.Stats)
	}
	// The paper's Figs. 10–12 are per-trial scatter plots; render the
	// distribution of the first and last timeout settings as histograms.
	for _, i := range []int{0, len(r.Rows) - 1} {
		if i < 0 || i >= len(r.Rows) || len(r.Rows[i].Samples) < 10 {
			continue
		}
		row := r.Rows[i]
		h, err := metrics.NewHistogram(row.Stats.Min, row.Stats.Max+1e-9, 10)
		if err != nil {
			continue
		}
		for _, s := range row.Samples {
			h.Add(s)
		}
		fmt.Fprintf(w, "  distribution, U(%d,%d) ms:\n", row.TMs, 2*row.TMs)
		for _, line := range strings.Split(strings.TrimRight(h.Render(32), "\n"), "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// Recovery scenarios: which peer a recoveryTrial crashes.
const (
	crashSubgroupLeader = "subgroup-leader" // one that is not the FedAvg leader (Figs. 10–11, ext5)
	crashFedAvgLeader   = "fedavg-leader"   // Fig. 12
)

// recoveryTrial is one crash-recovery measurement on a fresh M×N
// two-layer cluster with timeouts U(TMs, 2·TMs) ms — the paper's
// Sec. VI-B setup at M = N = 5, Latency = 15 ms. It is the one trial
// behind Figs. 10–12 and ext5.
type recoveryTrial struct {
	M, N      int
	TMs       int
	Latency   simnet.Duration // one-way link latency
	Seed      int64
	Telemetry *telemetry.Registry // optional; accumulates across trials
	// ElectOnly stops the trial once the subgroup has its new leader
	// (Fig. 10, ext5): joinMs is −1. At link latencies near T the
	// FedAvg rejoin that would follow need not converge.
	ElectOnly bool
}

// Run bootstraps the cluster, lets configuration commits settle for
// 4·T, crashes the scenario's victim and returns the virtual time in ms
// from the crash until the victim's subgroup has a new leader (electMs)
// and until that leader has joined the FedAvg layer (joinMs).
func (rt recoveryTrial) Run(scenario string) (electMs, joinMs float64, err error) {
	sys, err := cluster.New(cluster.Options{
		NumSubgroups:    rt.M,
		SubgroupSize:    rt.N,
		ElectionTickMin: rt.TMs,
		ElectionTickMax: 2 * rt.TMs,
		Latency:         rt.Latency,
		Seed:            rt.Seed,
		Telemetry:       rt.Telemetry,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := sys.Bootstrap(120 * simnet.Second); err != nil {
		return 0, 0, err
	}
	// Let configuration commits propagate before injecting the fault.
	sys.Sim.RunFor(simnet.Duration(4*rt.TMs) * simnet.Millisecond)

	fed := sys.FedAvgLeader()
	victim := raft.None
	switch scenario {
	case crashFedAvgLeader:
		victim = fed
	case crashSubgroupLeader:
		for g := 0; g < rt.M && victim == raft.None; g++ {
			if l := sys.SubgroupLeader(g); l != fed {
				victim = l
			}
		}
	default:
		return 0, 0, fmt.Errorf("experiments: unknown scenario %q", scenario)
	}
	if victim == raft.None {
		return 0, 0, fmt.Errorf("experiments: no %s to crash", scenario)
	}
	victimSub := sys.Peer(victim).Subgroup
	crashAt := sys.Sim.Now()
	if err := sys.CrashPeer(victim); err != nil {
		return 0, 0, err
	}
	limit := 600 * simnet.Second
	newLeader, electAt, err := sys.WaitSubgroupLeader(victimSub, victim, limit)
	if err != nil {
		return 0, 0, err
	}
	electMs = simnet.Duration(electAt - crashAt).Ms()
	if rt.ElectOnly {
		return electMs, -1, nil
	}
	joinAt, err := sys.WaitJoined(newLeader, limit)
	if err != nil {
		return 0, 0, err
	}
	return electMs, simnet.Duration(joinAt - crashAt).Ms(), nil
}

// paperTrial is the N=25, n=5 setup of Figs. 10–12 (the paper fixes
// 15 ms links; ext5 sweeps the latency), counting into reg when it is
// not nil.
func paperTrial(tMs, latencyMs int, seed int64, electOnly bool, reg *telemetry.Registry) recoveryTrial {
	return recoveryTrial{M: 5, N: 5, TMs: tMs, Latency: simnet.Duration(latencyMs) * simnet.Millisecond,
		Seed: seed, Telemetry: reg, ElectOnly: electOnly}
}

// runRecovery samples p.Trials trials of scenario per timeout setting:
// the time to the FedAvg rejoin when join is set, the time to the
// subgroup election (and no further) otherwise.
func runRecovery(fig, note, scenario string, join bool, paper map[int]float64, p Params) (*recoveryResult, error) {
	p = p.Defaults()
	res := &recoveryResult{Fig: fig, Note: note, Paper: paper}
	for _, tMs := range timeoutRanges {
		// Trials are independent simulations with per-trial seeds, so
		// they fan out over the tensor worker budget; samples land at
		// their trial index, keeping the result order (and therefore the
		// stats and histograms) identical to a serial run. Trials that
		// share a registry run in order, one at a time: its trace and
		// its clock follow one simulation at a time, so that equal
		// seeds dump equal bytes.
		samples := make([]float64, p.Trials)
		errs := make([]error, p.Trials)
		runTrial := func(trial int) {
			seed := p.Seed + int64(tMs)*100000 + int64(trial)
			ms, joinMs, err := paperTrial(tMs, 15, seed, !join, p.Telemetry).Run(scenario)
			if err != nil {
				errs[trial] = fmt.Errorf("%s T=%d trial=%d: %w", fig, tMs, trial, err)
				return
			}
			if join {
				ms = joinMs
			}
			samples[trial] = ms
		}
		runTrials := func(lo, hi int) {
			for trial := lo; trial < hi; trial++ {
				runTrial(trial)
			}
		}
		if p.Telemetry != nil {
			runTrials(0, p.Trials)
		} else {
			tensor.ParallelRows(p.Trials, runTrials)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, recoveryRow{TMs: tMs, Stats: metrics.Summarize(samples), Samples: samples})
	}
	return res, nil
}

// fig10 measures the time to detect a crashed subgroup leader and elect
// a new one (paper averages: 214.30 / 401.04 / 580.74 / 749.07 ms).
func fig10(p Params) (*recoveryResult, error) {
	return runRecovery("fig10",
		"subgroup-leader crash → new subgroup leader elected (N=25, n=5, 15 ms links)",
		crashSubgroupLeader, false,
		map[int]float64{50: 214.30, 100: 401.04, 150: 580.74, 200: 749.07}, p)
}

// fig11 additionally measures the new leader joining the FedAvg group
// (paper: Fig. 10 averages + 122.98 / 125.8 / 144.70 / 166.09 ms).
func fig11(p Params) (*recoveryResult, error) {
	return runRecovery("fig11",
		"subgroup-leader crash → new leader elected and joined FedAvg layer",
		crashSubgroupLeader, true,
		map[int]float64{50: 337.28, 100: 526.84, 150: 725.44, 200: 915.16}, p)
}

// fig12 measures recovery from a FedAvg-leader crash: elections in both
// layers plus the FedAvg-group rebuild.
func fig12(p Params) (*recoveryResult, error) {
	return runRecovery("fig12",
		"FedAvg-leader crash → both layers recovered, new subgroup leader joined",
		crashFedAvgLeader, true,
		map[int]float64{50: 432.35, 100: 641.49, 150: 855.74, 200: 1073.69}, p)
}
