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
//     wan50 ones with sub-millisecond intra-region links among them;
//   - `p2pfl-chaos -track churn` seeds 13 and 16, whose hand-offs
//     restart hosts mid-run;
//   - `p2pfl-experiments -exp fig10,fig11,fig12,ext5 -trials 50`, ext5's
//     1 ms row on links one tick long, where a host's tick-time sends
//     land between the next instant's ticks.
//
// A chaos cell is digested as its JSON report (schedule, violations and
// stats, virtual milliseconds included), a figure as its printed table.
func TestVirtualTimelinesAreByteIdentical(t *testing.T) {
	want := map[string]string{
		"compose seed 1": "3a1a54739c44fa67cdd4f67f9d89c313a41c2146ada1f1a810dd2dce285151e0",
		"churn seed 13":  "927582b5aaa3077111d85457825a631aa90212d185907877764cd6679f726e9e",
		"churn seed 16":  "ba25042323be5e4d9dfb89008b7a930dd397d92f8192947bc1bf448a94ccc600",
		"fig10":          "ba0235927d63449388076701aa885d0c0a3e07897ba10cf92ea1363a4d56f26f",
		"fig11":          "28001bafa7209b11cfd0d9ba8b7d751d08b96906c7f4490616877b612e8c71be",
		"fig12":          "7a781e69d0e948b00b556d4b8ba6b747b573407e759703b931d85995aec01c9c",
		"ext5":           "4e8b2f7a05bc353c876668dd2fc718482efd5af602bcbb2f206a557e72508df4",
	}
	got := map[string]string{}
	digest := func(name string, write func(*bytes.Buffer)) {
		var buf bytes.Buffer
		write(&buf)
		got[name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	report := func(buf *bytes.Buffer, c chaos.Campaign) {
		b, err := json.Marshal(c.Run())
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}

	// The cells runCompose in cmd/p2pfl-chaos builds at its default flags.
	digest("compose seed 1", func(buf *bytes.Buffer) {
		mixes := []struct {
			name string
			c    chaos.Campaign
		}{
			{"mixed", chaos.Campaign{Mix: chaos.DefaultMix}},
			{"flap", chaos.Campaign{Mix: chaos.FlappingMix}},
			{"churn", chaos.Campaign{Mix: chaos.ChurnMix, ChurnRounds: 3}},
			{"crash", chaos.Campaign{Mix: chaos.CrashHeavyMix}},
			{"partition", chaos.Campaign{Mix: chaos.PartitionHeavyMix}},
		}
		for _, profile := range []cluster.Profile{cluster.Paper, cluster.LAN, cluster.WAN} {
			for _, topology := range []string{"", "wan50"} {
				for _, mix := range mixes {
					for _, n := range []int{3, 4} {
						c := mix.c
						c.Seed, c.Steps, c.Nodes, c.Subgroups, c.SubgroupSize = 1, 24, 5, 3, n
						c.Target, c.Profile, c.Topology = chaos.TargetTwoLayer, profile, topology
						report(buf, c)
					}
				}
			}
		}
	})
	// The churn track's campaign at its default flags.
	for _, seed := range []int64{13, 16} {
		digest(fmt.Sprintf("churn seed %d", seed), func(buf *bytes.Buffer) {
			report(buf, chaos.Campaign{
				Seed: seed, Steps: 24, Nodes: 5, Subgroups: 3, SubgroupSize: 3,
				Target: chaos.TargetTwoLayer, Mix: chaos.ChurnMix, Profile: cluster.LAN,
				ChurnRounds: 3, SACRounds: -1,
			})
		})
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
