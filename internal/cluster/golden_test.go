package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/experiments"
)

// TestVirtualTimelinesAreByteIdentical pins SHA-256 digests of outputs
// that replay on the simulator's virtual clock, so a change to how the
// clock orders its events — when hosts tick, when messages land — must
// leave every timeline byte for byte where it was:
//
//   - `p2pfl-chaos -track compose -seed 1`: its 60 two-layer cells, the
//     wan50 ones with sub-millisecond intra-region links among them, and
//     the oracles it runs after them;
//   - `p2pfl-chaos -track churn` seeds 13 and 16, whose hand-offs
//     restart hosts mid-run, and their churn oracle runs;
//   - `p2pfl-experiments -exp fig10,fig11,fig12,ext5 -trials 50`, ext5's
//     1 ms row on links one tick long, where a host's tick-time sends
//     land between the next instant's ticks.
//
// A chaos cell or oracle run is digested as its JSON report (schedule,
// violations and stats, virtual milliseconds included), a figure as its
// printed table.
func TestVirtualTimelinesAreByteIdentical(t *testing.T) {
	want := map[string]string{
		"compose seed 1":         "0a5b53290099ac18409f5af338e9043fdabd85c41ebd2614558e6e7dba6c4729",
		"compose seed 1 oracles": "3c056d81cd4c902c6623ffa8a1780db8a8b22a4df0e60366a1408ddef9fa8d15",
		"churn seed 13":          "a45fd8b309194920c5831998d3e17b2d98ea6bc71ee62549982f2d578abd2a94",
		"churn seed 13 oracle":   "729f2798fa073cceeca9f31f91bf53c079d7ac1428a41137890c1587d8f86867",
		"churn seed 16":          "178337525df9d61157e0eaeace2d0691adc5e62bb5af1a723bc605e16db4e1f7",
		"churn seed 16 oracle":   "f7b9ba2cc33ad7a2aee47a148ca7de6e9636eb6175d7da2e98ecf9c439c25476",
		"fig10":                  "ba0235927d63449388076701aa885d0c0a3e07897ba10cf92ea1363a4d56f26f",
		"fig11":                  "28001bafa7209b11cfd0d9ba8b7d751d08b96906c7f4490616877b612e8c71be",
		"fig12":                  "7a781e69d0e948b00b556d4b8ba6b747b573407e759703b931d85995aec01c9c",
		"ext5":                   "4e8b2f7a05bc353c876668dd2fc718482efd5af602bcbb2f206a557e72508df4",
	}
	got := map[string]string{}
	digest := func(name string, write func(*bytes.Buffer)) {
		var buf bytes.Buffer
		write(&buf)
		got[name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	report := func(buf *bytes.Buffer, rep *chaos.Report) {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}

	// The cells runCompose in cmd/p2pfl-chaos builds at its default flags,
	// then its oracles: the churn oracle off the last cell of each profile
	// and link, the SAC oracle off the flag-built campaign.
	var oracles []*chaos.Report
	digest("compose seed 1", func(buf *bytes.Buffer) {
		mixes := []chaos.FaultMix{chaos.DefaultMix, chaos.FlappingMix, chaos.ChurnMix, chaos.CrashHeavyMix, chaos.PartitionHeavyMix}
		for _, profile := range []cluster.Profile{cluster.Paper, cluster.LAN, cluster.WAN} {
			for _, topology := range []string{"", "wan50"} {
				var c chaos.Campaign
				for _, mix := range mixes {
					for _, n := range []int{3, 4} {
						c = chaos.Campaign{Seed: 1, Steps: 24, Mix: mix, Subgroups: 3, SubgroupSize: n,
							Profile: profile, Topology: topology}
						report(buf, c.Run())
					}
				}
				oracles = append(oracles, chaos.ChurnOracle(c))
			}
		}
	})
	digest("compose seed 1 oracles", func(buf *bytes.Buffer) {
		for _, rep := range append(oracles, chaos.SACOracle(chaos.Campaign{Seed: 1, Steps: 24, Mix: chaos.DefaultMix,
			Subgroups: 3, SubgroupSize: 3})) {
			report(buf, rep)
		}
	})
	// The churn track's campaign at its default flags, and its oracle.
	for _, seed := range []int64{13, 16} {
		c := chaos.Campaign{
			Seed: seed, Steps: 24, Subgroups: 3, SubgroupSize: 3,
			Mix: chaos.ChurnMix, Profile: cluster.LAN,
		}
		digest(fmt.Sprintf("churn seed %d", seed), func(buf *bytes.Buffer) { report(buf, c.Run()) })
		digest(fmt.Sprintf("churn seed %d oracle", seed), func(buf *bytes.Buffer) { report(buf, chaos.ChurnOracle(c)) })
	}
	for _, fig := range []string{"fig10", "fig11", "fig12", "ext5"} {
		digest(fig, func(buf *bytes.Buffer) {
			res, err := experiments.Run(fig, experiments.Params{Rounds: 120, Trials: 50, MaxN: 50, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res.Print(buf)
		})
	}

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], w)
		}
	}
}
