package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// wanSweepSeeds is the pinned 20-seed acceptance sweep.
func wanSweepSeeds() []int64 {
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestWANStabilitySweepWANProfile is the acceptance sweep: 5-node Raft
// on the 50 ms asymmetric WAN topology under the wan profile records zero spurious elections at steady state
// and bounded failover after a leader kill, for all 20 seeds.
func TestWANStabilitySweepWANProfile(t *testing.T) {
	for _, seed := range wanSweepSeeds() {
		rep, err := RunWANStability(StabilityOptions{
			Seed:    seed,
			Profile: cluster.WAN,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.SpuriousElections != 0 {
			t.Errorf("seed %d: %d spurious elections at steady state under the wan profile", seed, rep.SpuriousElections)
		}
		if rep.FinalSteadyTerm != rep.BaselineTerm {
			t.Errorf("seed %d: term advanced %d → %d during steady state", seed, rep.BaselineTerm, rep.FinalSteadyTerm)
		}
		if !rep.Passed() {
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %v", seed, v)
			}
		}
		if rep.FailoverTicks > rep.FailoverBound {
			t.Errorf("seed %d: failover took %d ticks, bound %d", seed, rep.FailoverTicks, rep.FailoverBound)
		}
		// The tuner must actually have engaged somewhere: a follower in
		// the leader's region legitimately keeps a LAN-ish band (its
		// observed path really is ~2 ms), but the cross-region followers
		// must have tuned up — an all-stock sweep would prove nothing
		// about the feedback loop.
		tuned := 0
		for _, band := range rep.TunedBands {
			if band[0] > 100 {
				tuned++
			}
		}
		if tuned == 0 {
			t.Errorf("seed %d: no node left the stock LAN band: %v", seed, rep.TunedBands)
		}
	}
}

// TestWANStabilityPaperProfileContrast proves the checker is not
// vacuous: the identical 20-seed campaign under the paper profile (stock
// timeouts, no pre-vote/check-quorum/lease/tuner) must show at least
// one spurious election — the WAN jitter tail really does break stock
// Raft, and the sweep above really is measuring the fix.
func TestWANStabilityPaperProfileContrast(t *testing.T) {
	total := 0
	for _, seed := range wanSweepSeeds() {
		rep, err := RunWANStability(StabilityOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total += rep.SpuriousElections
	}
	if total == 0 {
		t.Fatalf("paper-profile sweep recorded zero spurious elections across 20 seeds — the wan-stability checker is vacuous")
	}
	t.Logf("paper-profile sweep: %d spurious elections across 20 seeds", total)
}

// TestWANStabilityDeterministic: equal seeds and options produce
// byte-identical reports (and byte-identical telemetry snapshots), the
// replay contract every chaos track honors.
func TestWANStabilityDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		reg := telemetry.New()
		rep, err := RunWANStability(StabilityOptions{
			Seed: 7, Profile: cluster.WAN,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		repJSON, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		snapJSON, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return repJSON, snapJSON
	}
	r1, s1 := run()
	r2, s2 := run()
	if string(r1) != string(r2) {
		t.Errorf("equal-seed stability reports differ:\n%s\n---\n%s", r1, r2)
	}
	if string(s1) != string(s2) {
		t.Errorf("equal-seed telemetry snapshots differ")
	}
}
