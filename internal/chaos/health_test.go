package chaos

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// flapCampaign is the failure-detector stress profile: flapping links,
// slow peers and leader kill storms against the two-layer cluster with
// the self-healing layer on, screened by the health-false-down and
// health-reconvergence checkers on top of the protocol invariants.
func flapCampaign(seed int64, reg *telemetry.Registry) Campaign {
	return Campaign{
		Seed:      seed,
		Steps:     12,
		Mix:       FlappingMix,
		Profile:   cluster.LAN,
		Telemetry: reg,
	}
}

// TestFlappingCampaignSweep is the acceptance sweep: the flapping
// campaign must pass both health checkers across 20 consecutive seeds,
// and every seed run twice must serialize byte-identical telemetry —
// schedule expansion, fault execution, detector verdicts and recovery
// are all pure functions of the seed.
func TestFlappingCampaignSweep(t *testing.T) {
	var flaps, downs, proactive int64
	for seed := int64(1); seed <= 20; seed++ {
		run := func() ([]byte, *Report) {
			reg := telemetry.New()
			rep := flapCampaign(seed, reg).Run()
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), rep
		}
		snap1, rep := run()
		requireClean(t, rep)
		snap2, _ := run()
		if !bytes.Equal(snap1, snap2) {
			t.Fatalf("seed %d: two runs produced different telemetry snapshots", seed)
		}
		flaps += int64(rep.Stats.Flaps)

		var snap telemetry.Snapshot
		if err := json.Unmarshal(snap1, &snap); err != nil {
			t.Fatal(err)
		}
		downs += snap.Counters["health/transitions_down"]
		proactive += snap.Counters["cluster/ev/proactive-campaign"]
	}
	// The sweep must actually exercise the mechanism under test: links
	// flapped, detectors issued (true) Down verdicts, and at least one
	// of those verdicts forced a proactive election.
	if flaps == 0 {
		t.Fatal("sweep flapped no links")
	}
	if downs == 0 {
		t.Fatal("sweep produced no Down verdicts — thresholds never tripped")
	}
	if proactive == 0 {
		t.Fatal("sweep triggered no proactive campaigns")
	}
}

// TestFlappingReplayRoundTrip: a detector campaign's replay file
// preserves the Profile configuration, so a red run
// re-executes with the same checkers armed.
func TestFlappingReplayRoundTrip(t *testing.T) {
	c := flapCampaign(3, nil)
	rep := c.Run()
	requireClean(t, rep)
	path := filepath.Join(t.TempDir(), "flap-replay.json")
	if err := WriteReplay(path, rep); err != nil {
		t.Fatal(err)
	}
	c2, actions, err := LoadReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Profile != cluster.LAN {
		t.Fatal("replay dropped Campaign.Profile")
	}
	rep2 := c2.Execute(actions)
	requireClean(t, rep2)
	if rep2.Stats.Flaps != rep.Stats.Flaps {
		t.Fatalf("replay flapped %d links, original %d", rep2.Stats.Flaps, rep.Stats.Flaps)
	}
}
