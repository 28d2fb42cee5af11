package experiments

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// runTrial is one small recovery trial: m subgroups of n, 15 ms links.
func runTrial(scenario string, m, n, tMs int, seed int64, reg *telemetry.Registry) (float64, float64, error) {
	return recoveryTrial{
		M: m, N: n, TMs: tMs, Latency: 15 * simnet.Millisecond, Seed: seed, Telemetry: reg,
	}.Run(scenario)
}

func TestRunTrialScenarios(t *testing.T) {
	elect, rejoin, err := runTrial(crashSubgroupLeader, 3, 3, 50, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elect <= 0 || rejoin <= elect {
		t.Fatalf("elect=%v rejoin=%v", elect, rejoin)
	}

	elect, rejoin, err = runTrial(crashFedAvgLeader, 3, 3, 50, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elect <= 0 || rejoin <= 0 {
		t.Fatalf("elect=%v rejoin=%v", elect, rejoin)
	}

	if _, _, err := runTrial("follower", 3, 3, 50, 3, nil); err == nil {
		t.Fatal("an unknown scenario ran")
	}
}

// TestRunTrialTelemetry: a registry threaded through a trial must see
// the crash scenario — elections (bootstrap + re-election) and cluster
// events — and accumulate across trials.
func TestRunTrialTelemetry(t *testing.T) {
	reg := telemetry.New()
	if _, _, err := runTrial(crashSubgroupLeader, 3, 3, 50, 1, reg); err != nil {
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
	if _, _, err := runTrial(crashSubgroupLeader, 3, 3, 50, 2, reg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["raft/msgs_sent"]; got <= first {
		t.Errorf("registry did not accumulate across trials: msgs_sent %d -> %d", first, got)
	}
}

// TestRecoveryTelemetryIsByteIdentical: two same-seed runs of the
// recovery figures into fresh registries dump the same JSON, as
// p2pfl-experiments -telemetry promises, and counting changes no
// figure: the rows equal those of a run with no registry, whose trials
// fan out over the worker budget.
func TestRecoveryTelemetryIsByteIdentical(t *testing.T) {
	p := Params{Trials: 3, Seed: 5}
	var dumps [2][]byte
	var printed [2]string
	for i := range dumps {
		p.Telemetry = telemetry.New()
		var out bytes.Buffer
		for _, fig := range []func(Params) (*recoveryResult, error){fig10, fig12} {
			res, err := fig(p)
			if err != nil {
				t.Fatal(err)
			}
			res.Print(&out)
		}
		printed[i] = out.String()
		var dump bytes.Buffer
		if err := p.Telemetry.WriteJSON(&dump); err != nil {
			t.Fatal(err)
		}
		dumps[i] = dump.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatalf("same-seed telemetry dumps differ (%d vs %d bytes)", len(dumps[0]), len(dumps[1]))
	}
	if n := p.Telemetry.Snapshot().Counters["raft/elections_won"]; n == 0 {
		t.Fatal("the registry counted no election")
	}
	if printed[0] != printed[1] {
		t.Fatal("same-seed figures differ")
	}
	p.Telemetry = nil
	var plain bytes.Buffer
	for _, fig := range []func(Params) (*recoveryResult, error){fig10, fig12} {
		res, err := fig(p)
		if err != nil {
			t.Fatal(err)
		}
		res.Print(&plain)
	}
	if plain.String() != printed[0] {
		t.Fatalf("a registry changed the figures:\nwith:\n%s\nwithout:\n%s", printed[0], plain.String())
	}
}
