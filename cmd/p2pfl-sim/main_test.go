package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// runTrial is one trial the way main runs it.
func runTrial(scenario string, m, n, tMs int, seed int64, reg *telemetry.Registry) (float64, float64, error) {
	return experiments.RecoveryTrial{
		M: m, N: n, TMs: tMs, Latency: 15 * simnet.Millisecond, Seed: seed, Telemetry: reg,
	}.Run(scenario)
}

func TestRunTrialScenarios(t *testing.T) {
	elect, rejoin, err := runTrial("subgroup-leader", 3, 3, 50, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elect <= 0 || rejoin <= elect {
		t.Fatalf("elect=%v rejoin=%v", elect, rejoin)
	}

	elect, rejoin, err = runTrial("fedavg-leader", 3, 3, 50, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elect <= 0 || rejoin <= 0 {
		t.Fatalf("elect=%v rejoin=%v", elect, rejoin)
	}

	e, j, err := runTrial("follower", 3, 5, 50, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e != -1 || j != -1 {
		t.Fatalf("follower scenario returned times: %v %v", e, j)
	}
}

// TestRunTrialTelemetry: a registry threaded through runTrial must see
// the crash scenario — elections (bootstrap + re-election) and cluster
// events — and accumulate across trials.
func TestRunTrialTelemetry(t *testing.T) {
	reg := telemetry.New()
	if _, _, err := runTrial("subgroup-leader", 3, 3, 50, 1, reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// 3 subgroups + FedAvg layer + the forced re-election ≥ 5 wins.
	if got := snap.Counters["raft/elections_won"]; got < 5 {
		t.Errorf("raft/elections_won = %d, want >= 5", got)
	}
	if got := snap.Counters["cluster/ev/subgroup-leader"]; got < 1 {
		t.Errorf("cluster/ev/subgroup-leader = %d, want >= 1", got)
	}
	first := snap.Counters["raft/msgs_sent"]
	if first == 0 {
		t.Fatal("raft/msgs_sent = 0 after a trial")
	}
	if _, _, err := runTrial("subgroup-leader", 3, 3, 50, 2, reg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["raft/msgs_sent"]; got <= first {
		t.Errorf("registry did not accumulate across trials: msgs_sent %d -> %d", first, got)
	}
}
