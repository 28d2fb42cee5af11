package cluster

import (
	"reflect"
	"testing"

	"repro/internal/health"
	"repro/internal/raft"
	"repro/internal/simnet"
)

// detectorOpts is paperOpts under the given profile with T stretched to
// five heartbeat intervals (stock: three). The LAN detector's fixed
// thresholds declare Down after 3 intervals of silence = 3T/5, strictly
// below the U(T, 2T) election-timeout floor, so a proactive campaign
// always has room to beat the timeout path; Paper at the same timing is
// the equal-seed control.
func detectorOpts(tMs int, seed int64, profile Profile) Options {
	o := paperOpts(tMs, seed)
	o.HeartbeatTick = tMs / 5
	o.Profile = profile
	return o
}

// crashNonFedLeader picks a subgroup whose leader is not the FedAvg
// leader, crashes that leader, and returns (subgroup, old leader, crash
// time). Keeping the FedAvg leader alive isolates the measurement to
// subgroup recovery + the join protocol.
func crashNonFedLeader(t *testing.T, s *System) (int, uint64, simnet.Time) {
	t.Helper()
	fed := s.FedAvgLeader()
	for g := 0; g < s.NumSubgroups(); g++ {
		if l := s.SubgroupLeader(g); l != raft.None && l != fed {
			at := s.Sim.Now()
			if err := s.CrashPeer(l); err != nil {
				t.Fatal(err)
			}
			return g, l, at
		}
	}
	t.Fatal("no subgroup leader distinct from the FedAvg leader")
	return 0, 0, 0
}

// recoverAfterLeaderCrash measures the virtual time from a subgroup
// leader crash until the replacement leader's FedAvg membership commits.
func recoverAfterLeaderCrash(t *testing.T, s *System) (simnet.Duration, int, simnet.Time) {
	t.Helper()
	g, old, crashAt := crashNonFedLeader(t, s)
	repl, _, err := s.WaitSubgroupLeader(g, old, 10*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	joinedAt, err := s.WaitJoined(repl, 20*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	return simnet.Duration(joinedAt - crashAt), g, crashAt
}

// TestDetectorBeatsTimeoutRecovery runs the same leader-crash scenario
// at the same seed with and without the failure detector. The detector
// path must reach a new joined FedAvg member strictly faster in virtual
// time: its Down verdict lands after ~3·T/5 of silence while the
// timeout-only path waits out a U(T, 2T) draw.
func TestDetectorBeatsTimeoutRecovery(t *testing.T) {
	const seed = 7

	base := mustBootstrap(t, detectorOpts(150, seed, Paper))
	baseDur, _, baseCrash := recoverAfterLeaderCrash(t, base)
	if _, ok := base.FirstEventAfter(baseCrash, EvProactiveCampaign, -1); ok {
		t.Fatal("timeout-only run must not record proactive campaigns")
	}

	det := mustBootstrap(t, detectorOpts(150, seed, LAN))
	detDur, g, detCrash := recoverAfterLeaderCrash(t, det)
	if detDur >= baseDur {
		t.Fatalf("detector recovery %v ms not faster than timeout-only %v ms",
			detDur.Ms(), baseDur.Ms())
	}

	// The win must come from the mechanism under test: a proactive
	// campaign in the crashed subgroup, before its new leader emerged.
	camp, ok := det.FirstEventAfter(detCrash, EvProactiveCampaign, g)
	if !ok {
		t.Fatal("detector run recorded no proactive campaign in the crashed subgroup")
	}
	lead, ok := det.FirstEventAfter(detCrash, EvSubgroupLeader, g)
	if !ok {
		t.Fatal("no new subgroup leader event recorded")
	}
	if camp.At > lead.At {
		t.Fatalf("proactive campaign at %v ms after new leader at %v ms", simnet.Duration(camp.At).Ms(), simnet.Duration(lead.At).Ms())
	}

	// Shadow-ledger invariant: every Down verdict saw a genuine silence
	// gap. A Down with ShadowGapUs below threshold would mean the
	// detector condemned a peer whose messages were still arriving.
	downs := 0
	for _, tr := range det.HealthTransitions() {
		if tr.To != health.Down {
			continue
		}
		downs++
		if tr.ShadowGapUs < tr.ThresholdUs {
			t.Fatalf("false Down: owner %d condemned %d with shadow gap %dµs < threshold %dµs",
				tr.Owner, tr.Peer, tr.ShadowGapUs, tr.ThresholdUs)
		}
	}
	if downs == 0 {
		t.Fatal("detector run recorded no Down verdicts")
	}
}

// TestDetectorRecoveryDeterministicBySeed: two systems at the same seed
// replay the same crash and produce identical event timelines and
// identical detector verdict streams.
func TestDetectorRecoveryDeterministicBySeed(t *testing.T) {
	run := func() ([]Event, []HealthTransition) {
		s := mustBootstrap(t, detectorOpts(150, 11, LAN))
		recoverAfterLeaderCrash(t, s)
		return s.Events(), s.HealthTransitions()
	}
	ev1, tr1 := run()
	ev2, tr2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event timelines diverge at same seed:\n%v\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("health transitions diverge at same seed:\n%v\n%v", tr1, tr2)
	}
}

// TestDetectorSteadyStateQuiet: with no faults injected after bootstrap,
// the detectors must issue no Down verdicts and end converged — regular
// heartbeat traffic keeps every watched peer Up.
func TestDetectorSteadyStateQuiet(t *testing.T) {
	s := mustBootstrap(t, detectorOpts(150, 3, LAN))
	mark := len(s.HealthTransitions())
	s.Sim.RunFor(3 * simnet.Second)
	for _, tr := range s.HealthTransitions()[mark:] {
		if tr.To == health.Down {
			t.Fatalf("steady state produced a Down verdict: owner %d about %d", tr.Owner, tr.Peer)
		}
	}
	if !s.DetectorsConverged() {
		t.Fatal("detectors not converged in steady state")
	}
	for _, id := range s.PeerIDs() {
		if s.Peer(id).det == nil {
			t.Fatalf("peer %d has no detector", id)
		}
	}
}

// TestAutoFedReviveAfterTotalFedLoss: both FedAvg members of a two-
// subgroup system crash at once (outside the paper's ≤ k−1 assumption).
// After restart each peer re-elects itself subgroup leader; with the
// detector enabled the leaderless FedAvg layer is revived automatically
// instead of requiring the manual ReviveFedNode call.
func TestAutoFedReviveAfterTotalFedLoss(t *testing.T) {
	o := detectorOpts(150, 5, LAN)
	o.NumSubgroups = 2
	o.SubgroupSize = 1
	s := mustBootstrap(t, o)

	for _, id := range s.PeerIDs() {
		if err := s.CrashPeer(id); err != nil {
			t.Fatal(err)
		}
	}
	s.Sim.RunFor(500 * simnet.Millisecond)
	if l := s.FedAvgLeader(); l != raft.None {
		t.Fatalf("FedAvg leader %d survived a total crash", l)
	}
	for _, id := range s.PeerIDs() {
		if err := s.RestartPeer(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.WaitFedAvgLeader(raft.None, 20*simnet.Second); err != nil {
		t.Fatalf("FedAvg layer did not self-heal: %v", err)
	}
	if _, ok := s.FirstEventAfter(0, EvFedRevived, -1); !ok {
		t.Fatal("no fed-revived event recorded")
	}
}

// TestDegradedSubgroups: quorum math over live peers, and recovery when
// a member returns.
func TestDegradedSubgroups(t *testing.T) {
	s := mustBootstrap(t, Options{
		NumSubgroups:    2,
		SubgroupSize:    3,
		ElectionTickMin: 150,
		ElectionTickMax: 300,
		Latency:         15 * simnet.Millisecond,
		Seed:            9,
	})
	if got := s.DegradedSubgroups(); len(got) != 0 {
		t.Fatalf("healthy system reports degraded subgroups %v", got)
	}
	// Crash 2 of 3 peers in subgroup 1: its live count (1) drops below
	// quorum (2).
	ids := s.SubgroupPeers(1)
	for _, id := range ids[:2] {
		if err := s.CrashPeer(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DegradedSubgroups(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("DegradedSubgroups = %v, want [1]", got)
	}
	if err := s.RestartPeer(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := s.DegradedSubgroups(); len(got) != 0 {
		t.Fatalf("subgroup still degraded after restart: %v", got)
	}
}
