package cluster

import (
	"testing"

	"repro/internal/simnet"
)

// wanOpts is two subgroups of three spread round-robin over the wan50
// regions under the given profile. WAN keeps the detector off:
// proactive campaigns are the point of the LAN profile, while these
// tests pin down the *timeout* path the tuner governs.
func wanOpts(t *testing.T, seed int64, profile Profile) Options {
	t.Helper()
	topo, err := simnet.Preset("wan50")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		NumSubgroups: 2,
		SubgroupSize: 3,
		Latency:      15 * simnet.Millisecond, // app-level join traffic only
		Topology:     topo,
		Profile:      profile,
		Seed:         seed,
	}
}

// TestWANClusterTunesElectionBands: after bootstrap plus a settling
// window on the wan50 topology, the WAN profile's tuner has moved at least one
// peer's election band above the stock configuration — and no peer's
// band ever leaves the tuner's clamp range.
func TestWANClusterTunesElectionBands(t *testing.T) {
	s := mustBootstrap(t, wanOpts(t, 1, WAN))
	s.Sim.RunFor(10 * simnet.Second)

	tuned := 0
	for _, id := range s.PeerIDs() {
		min, max := s.Peer(id).subHost.Node.ElectionTicks()
		if min <= 0 || max <= min {
			t.Fatalf("peer %d: degenerate band [%d,%d]", id, min, max)
		}
		if min > 5000 || max > 2*5000 {
			t.Errorf("peer %d: band [%d,%d] above the tuner clamp", id, min, max)
		}
		if min > s.opts.ElectionTickMin {
			tuned++
		}
	}
	if tuned == 0 {
		t.Fatalf("no peer tuned above the stock band after 10 s on wan50")
	}
}

// TestConfigCommitsStartNoStormOnAWAN pins DESIGN §4's replication
// rule: an entry leaves a leader on append, on heartbeat and on reject,
// never on ack. The configuration commits of Sec. V-A1 land on every
// subgroup log every 50 ms, less than a wan50 round trip, so a leader
// that resent its unacked entries on each ack started one more copy per
// ack and a 5-peer subgroup offered ~25,000 raft messages per virtual
// second there against ~1,100 on lan15. With the rule, the subgroup
// costs about the same on both.
func TestConfigCommitsStartNoStormOnAWAN(t *testing.T) {
	rate := func(topology string) float64 {
		topo, err := simnet.Preset(topology)
		if err != nil {
			t.Fatal(err)
		}
		s := mustBootstrap(t, Options{
			NumSubgroups:    1,
			SubgroupSize:    5,
			ElectionTickMin: 50,
			ElectionTickMax: 100,
			HeartbeatTick:   15,
			Latency:         15 * simnet.Millisecond,
			Topology:        topo,
			Seed:            1,
		})
		const window = 10 * simnet.Second
		before, _ := s.SubgroupNet(0).OfferedTraffic()
		s.Sim.RunFor(window)
		after, _ := s.SubgroupNet(0).OfferedTraffic()
		return float64(after-before) / (window.Ms() / 1000)
	}
	wan, lan := rate("wan50"), rate("lan15")
	t.Logf("offered raft messages per virtual second: wan50 %.0f, lan15 %.0f", wan, lan)
	if wan > 1.1*lan {
		t.Errorf("a 1×5 subgroup offers %.0f msgs/s on wan50, more than 1.1× its %.0f on lan15", wan, lan)
	}
}

// TestWANClusterFailoverRespectsTunedTimeouts is the ISSUE's cluster-level
// acceptance bound: a WAN-tuned cluster must not elect a replacement
// leader faster than 10× the (base) RTT between the new leader and the
// killed one — the tuner's whole point is that on a WAN, electing faster
// than the link allows is how spurious leadership churn starts. The
// same scenario under the Paper profile fails over on the stock
// (LAN-scale) band, proving the slowdown really comes from the feedback
// loop.
func TestWANClusterFailoverRespectsTunedTimeouts(t *testing.T) {
	failover := func(profile Profile) (elapsed simnet.Duration, old, new uint64, topo *simnet.Topology) {
		s := mustBootstrap(t, wanOpts(t, 3, profile))
		s.Sim.RunFor(10 * simnet.Second) // let the tuner converge (no-op when off)

		old = s.SubgroupLeader(0)
		if err := s.CrashPeer(old); err != nil {
			t.Fatal(err)
		}
		t0 := s.Sim.Now()
		leader, at, err := s.WaitSubgroupLeader(0, old, 120*simnet.Second)
		if err != nil {
			t.Fatal(err)
		}
		return simnet.Duration(at - t0), old, leader, s.opts.Topology
	}

	tunedElapsed, old, leader, topo := failover(WAN)
	bound := 10 * (topo.LinkOf(leader, old).Delay + topo.LinkOf(old, leader).Delay)
	if tunedElapsed < bound {
		t.Errorf("tuned cluster elected %d over %d in %v ms, faster than 10×RTT = %v ms",
			leader, old, tunedElapsed.Ms(), bound.Ms())
	}

	stockElapsed, _, _, _ := failover(Paper)
	if stockElapsed >= tunedElapsed {
		t.Errorf("stock failover (%v ms) not faster than tuned failover (%v ms) — tuning had no effect",
			stockElapsed.Ms(), tunedElapsed.Ms())
	}
}
