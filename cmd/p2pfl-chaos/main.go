// Command p2pfl-chaos runs deterministic fault campaigns and protocol
// oracles against the virtual-time protocol stack and checks the
// protocol invariants continuously (see internal/chaos). -track picks
// what one seed runs and what a sweep of seeds must have exercised;
// -mix picks a schedule's fault mix; -profile picks the
// failure-handling policy of every node (cluster.Profile):
//
//	p2pfl-chaos -seed 42                       one mixed campaign, raft-kv target,
//	                                           then the SAC oracle
//	p2pfl-chaos -seed 7 -mix crash -steps 40   crash-heavy campaign
//	p2pfl-chaos -target two-layer -m 3 -n 3    two-layer cluster campaign
//	p2pfl-chaos -target two-layer -mix flap -profile lan
//	                                           flapping links + failure-detector
//	                                           invariants (false-Down accuracy,
//	                                           bounded re-convergence)
//	p2pfl-chaos -target two-layer -mix byzantine -n 4
//	                                           adversarial peers vs the robust
//	                                           post-quiesce aggregation round
//	p2pfl-chaos -target two-layer -mix churn   joins, graceful departures and
//	                                           handoffs vs the live control plane
//	p2pfl-chaos -target two-layer -topology wan50 -profile wan
//	                                           campaign on the multi-region WAN
//	                                           latency model with pre-vote,
//	                                           check-quorum and RTT-tuned
//	                                           timeouts armed
//	p2pfl-chaos -track byzantine -seed 11      the Byzantine oracle alone (robustness,
//	                                           detection, equivocation, privacy,
//	                                           sharpness)
//	p2pfl-chaos -track churn -seeds 20         churn acceptance sweep (lan profile):
//	                                           a ChurnMix campaign, then the churn
//	                                           oracle; the sweep must see real
//	                                           joins, departs and handoffs
//	p2pfl-chaos -track shard -seeds 12         the shard oracle alone: elastic vs
//	                                           static aggregation on real clusters
//	                                           that cluster.Rebalance re-shards;
//	                                           every episode splits and merges
//	p2pfl-chaos -track wan -seeds 20           WAN stability sweep: the wan profile
//	                                           must stay election-quiet with
//	                                           bounded failover, the paper-profile
//	                                           control must show the spurious
//	                                           elections the profile fixes
//	p2pfl-chaos -track compose -seeds 20       composition sweep: 60 two-layer
//	                                           campaigns a seed (3 profiles ×
//	                                           {uniform, wan50} × 5 mixes × n ∈
//	                                           {3, 4}), the churn oracle per profile
//	                                           and link, the SAC oracle once
//	p2pfl-chaos -soak 30s                      seed sweep until the wall clock runs out
//	p2pfl-chaos -seed 9 -dump -out run.json    dump a replay file for the schedule
//	p2pfl-chaos -replay run.json               re-execute a dumped schedule exactly
//
// On an invariant violation the process prints the flags that rerun the
// seed alone and exits 1; a failing schedule is also minimized by
// bisection and written to -out (default chaos-replay.json). A sweep
// that never exercised what its track is about exits 1 too. Identical
// seeds always produce identical schedules and verdicts, so any red run
// reported by CI reproduces locally from its seed alone.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
)

var (
	seed      = flag.Int64("seed", 1, "first campaign seed (ignored with -replay)")
	seeds     = flag.Int("seeds", 0, "number of consecutive seeds to run (0: the track's own width — 1 for faults and byzantine, 20 for wan, churn and compose, 12 for shard)")
	soak      = flag.Duration("soak", 0, "keep running consecutive seeds for at least this long")
	trackName = flag.String("track", "faults", "what each seed runs: faults | byzantine | churn | shard | wan | compose")
	profile   = flag.String("profile", "paper", "failure-handling policy of every node: paper | lan | wan")
	steps     = flag.Int("steps", 24, "number of fault actions in the schedule")
	mix       = flag.String("mix", "mixed", "fault mix: mixed | crash | partition | flap | byzantine | churn")
	target    = flag.String("target", "raft-kv", "system under test: raft-kv | two-layer")
	nodes     = flag.Int("nodes", 5, "raft group size (raft-kv target)")
	m         = flag.Int("m", 3, "number of subgroups (two-layer target)")
	n         = flag.Int("n", 3, "peers per subgroup (two-layer target)")
	topo      = flag.String("topology", "", "latency preset replacing the uniform 15 ms link: lan15 | wan50 | wan200")
	out       = flag.String("out", "chaos-replay.json", "replay file written on failure (or with -dump)")
	dump      = flag.Bool("dump", false, "write the replay file even when the campaign passes")
	replay    = flag.String("replay", "", "re-execute the schedule from a replay file instead of generating one")
	budget    = flag.Int("min-budget", 64, "max campaign executions spent minimizing a failure")
	verbose   = flag.Bool("v", false, "print per-seed stats in a multi-seed run")
)

// track is one row of the registry -track selects from.
type track struct {
	// seeds is the sweep width when -seeds is not given.
	seeds int
	// run executes one seed — base is the flag-built campaign carrying
	// it — prints the outcome when show is set or the seed failed, and
	// returns the verdict plus what the seed exercised, in stats order.
	run func(base chaos.Campaign, show bool) (passed bool, exercised []int)
	// stats labels what run counts. The totals are printed, and a sweep
	// in which any of them stayed zero is vacuous and exits 1: checkers
	// that never saw their mechanism at work prove nothing.
	stats []string
}

// The registry is the one place that says what a seed runs: a fault
// schedule, oracles, or both.
var tracks = map[string]track{
	"faults": {seeds: 1, run: func(c chaos.Campaign, show bool) (bool, []int) {
		rep, sac := schedule(c, show), oracle("sac", chaos.SACOracle, c, show)
		return rep.Passed() && sac.Passed(), nil
	}},
	"byzantine": {seeds: 1, run: func(c chaos.Campaign, show bool) (bool, []int) {
		return oracle("byzantine", chaos.ByzantineOracle, c, show).Passed(), nil
	}},
	// Full two-layer ChurnMix campaigns with the failure detector armed,
	// then the churn oracle's episodes on real clusters of their own.
	"churn": {seeds: 20, stats: []string{"joins", "departs", "handoffs"},
		run: func(c chaos.Campaign, show bool) (bool, []int) {
			c.Target, c.Mix, c.Profile = chaos.TargetTwoLayer, chaos.ChurnMix, cluster.LAN
			return tally(func(s chaos.Stats) []int { return []int{s.Joins, s.Departs, s.Handoffs} },
				schedule(c, show), oracle("churn", chaos.ChurnOracle, c, show))
		}},
	// Elastic-vs-static aggregation on real clusters that
	// cluster.Rebalance re-shards, under -profile and -topology (see
	// internal/chaos/shardoracle.go).
	"shard": {seeds: 12, stats: []string{"splits", "merges"},
		run: func(c chaos.Campaign, show bool) (bool, []int) {
			return tally(func(s chaos.Stats) []int { return []int{s.Splits, s.Merges} },
				oracle("shard", chaos.ShardOracle, c, show))
		}},
	"wan":     {seeds: 20, stats: []string{"spurious elections in the paper-profile control"}, run: runWAN},
	"compose": {seeds: 20, stats: []string{"joins", "departs"}, run: runCompose},
}

func main() {
	flag.Parse()

	if *replay != "" {
		c, actions, err := chaos.LoadReplay(*replay)
		if err != nil {
			log.Fatal(err)
		}
		rep := c.Execute(actions)
		printReport(rep, "")
		if !rep.Passed() {
			os.Exit(1)
		}
		return
	}

	t, ok := tracks[*trackName]
	if !ok {
		log.Fatalf("unknown track %q (want faults | byzantine | churn | shard | wan | compose)", *trackName)
	}
	base := campaign(*seed, *steps, *mix, *target, *profile, *topo, *nodes, *m, *n)
	width := *seeds
	if width <= 0 {
		width = t.seeds
	}

	// Consecutive seeds until both the width and the wall-clock budget are
	// spent; the first failure stops the run.
	start := time.Now()
	totals := make([]int, len(t.stats))
	ran := 0
	for ; ran < width || time.Since(start) < *soak; ran++ {
		c := base
		c.Seed = *seed + int64(ran)
		passed, exercised := t.run(c, *verbose || (width == 1 && *soak <= 0))
		if !passed {
			fmt.Println("rerun this seed alone with:", rerun(c.Seed))
			os.Exit(1)
		}
		for i, v := range exercised {
			totals[i] += v
		}
	}
	if ran == 1 && len(t.stats) == 0 {
		return
	}
	summary := fmt.Sprintf("%s track: %d seeds (%d..%d) green", *trackName, ran, *seed, *seed+int64(ran-1))
	var counted []string
	vacuous := false
	for i, label := range t.stats {
		counted = append(counted, fmt.Sprintf("%d %s", totals[i], label))
		vacuous = vacuous || totals[i] == 0
	}
	if counted != nil {
		summary += " with " + strings.Join(counted, ", ")
	}
	fmt.Println(summary)
	if vacuous {
		fmt.Printf("%s track: a counter stayed at zero — the sweep never exercised its mechanism, so its checkers proved nothing\n", *trackName)
		os.Exit(1)
	}
}

// schedule runs c's fault schedule. A failing schedule is minimized and
// written to -out, as is every schedule under -dump — unless every
// violation is config: Execute refused the campaign before running any
// action, so no schedule could change the verdict or replay anything.
func schedule(c chaos.Campaign, show bool) *chaos.Report {
	rep := c.Run()
	if show || !rep.Passed() {
		printReport(rep, "")
	}
	if !rep.Passed() && !slices.ContainsFunc(rep.Violations, func(v chaos.Violation) bool { return v.Invariant != "config" }) {
		return rep
	}
	if !rep.Passed() {
		minActions, minRep := chaos.Minimize(c, rep.Actions, *budget)
		fmt.Printf("minimized %d-action schedule to %d actions (%d violations persist)\n",
			len(rep.Actions), len(minActions), len(minRep.Violations))
		rep = minRep
	}
	if *dump || !rep.Passed() {
		if err := chaos.WriteReplay(*out, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replay file written to %s — reproduce with: p2pfl-chaos -replay %s\n", *out, *out)
	}
	return rep
}

// oracle runs one oracle off c. It reads no schedule, so the rerun line
// main prints for a red seed reproduces it and there is no replay file.
func oracle(name string, run func(chaos.Campaign) *chaos.Report, c chaos.Campaign, show bool) *chaos.Report {
	rep := run(c)
	if show || !rep.Passed() {
		printReport(rep, name)
	}
	return rep
}

// tally is a seed's verdict over the reports it produced, and the sum of
// what count picks out of their stats.
func tally(count func(chaos.Stats) []int, reps ...*chaos.Report) (passed bool, totals []int) {
	passed, totals = true, count(chaos.Stats{})
	for _, rep := range reps {
		passed = passed && rep.Passed()
		for i, v := range count(rep.Stats) {
			totals[i] += v
		}
	}
	return passed, totals
}

// runWAN is one seed of the WAN stability track, a two-sided check: the
// 50 ms WAN scenario under the wan profile must be election-quiet with
// bounded failover, and the same seed under the paper profile is the
// control whose spurious elections prove the checker can fail. It takes
// only the seed from base.
func runWAN(base chaos.Campaign, show bool) (bool, []int) {
	on, err := chaos.RunWANStability(chaos.StabilityOptions{Seed: base.Seed, Profile: cluster.WAN})
	if err != nil {
		log.Fatal(err)
	}
	control, err := chaos.RunWANStability(chaos.StabilityOptions{Seed: base.Seed})
	if err != nil {
		log.Fatal(err)
	}
	if !on.Passed() {
		fmt.Printf("seed %-6d wan FAIL\n", base.Seed)
		for _, v := range on.Violations {
			fmt.Printf("  %s\n", v)
		}
	} else if show {
		fmt.Printf("seed %-6d wan PASS: 0 spurious elections, failover %d ticks (bound %d); control: %d spurious elections\n",
			base.Seed, on.FailoverTicks, on.FailoverBound, control.SpuriousElections)
	}
	return on.Passed(), []int{control.SpuriousElections}
}

// runCompose is one seed of the composition track: the two-layer target
// under every profile, on the uniform link and on wan50, under every
// fault mix that needs no adversary, at both subgroup sizes the mixes
// are tuned for — each cell exactly the campaign its flags would build
// (-steps and -m apply), so the line printed for a red cell reproduces
// it — then the churn oracle once per profile and link and the SAC
// oracle once. The features are proven one at a time elsewhere; this is
// where they meet. It was this sweep's paper/wan50/churn/-n 4 cell that
// elected two leaders in one term on seed 11 until raft admitted one
// configuration change at a time. Sixty reports a seed is more than a
// single-seed run should print unasked, so cells are shown under -v only.
func runCompose(base chaos.Campaign, _ bool) (bool, []int) {
	show := *verbose
	var reps []*chaos.Report
	for _, profile := range []string{"paper", "lan", "wan"} {
		for _, topology := range []string{"", "wan50"} {
			var cell chaos.Campaign
			for _, mix := range []string{"mixed", "flap", "churn", "crash", "partition"} {
				for _, n := range []int{3, 4} {
					cell = campaign(base.Seed, base.Steps, mix, string(chaos.TargetTwoLayer), profile, topology, base.Nodes, base.Subgroups, n)
					rep := schedule(cell, show)
					if show || !rep.Passed() {
						fmt.Printf("  cell: -target two-layer -profile %s -topology %q -mix %s -n %d -seed %d\n",
							profile, topology, mix, n, base.Seed)
					}
					if reps = append(reps, rep); !rep.Passed() {
						return false, nil
					}
				}
			}
			reps = append(reps, oracle("churn", chaos.ChurnOracle, cell, show))
		}
	}
	reps = append(reps, oracle("sac", chaos.SACOracle, base, show))
	return tally(func(s chaos.Stats) []int { return []int{s.Joins, s.Departs} }, reps...)
}

// mixes maps -mix names to fault mixes.
var mixes = map[string]chaos.FaultMix{
	"mixed":     chaos.DefaultMix,
	"crash":     chaos.CrashHeavyMix,
	"partition": chaos.PartitionHeavyMix,
	"flap":      chaos.FlappingMix,
	"byzantine": chaos.ByzantineMix,
	"churn":     chaos.ChurnMix,
}

func campaign(seed int64, steps int, mix, target, profile, topology string, nodes, m, n int) chaos.Campaign {
	fm, ok := mixes[mix]
	if !ok {
		log.Fatalf("unknown mix %q (want mixed | crash | partition | flap | byzantine | churn)", mix)
	}
	c := chaos.Campaign{Seed: seed, Steps: steps, Mix: fm, Nodes: nodes, Subgroups: m, SubgroupSize: n, Topology: topology}
	switch chaos.Target(target) {
	case chaos.TargetRaftKV, chaos.TargetTwoLayer:
		c.Target = chaos.Target(target)
	default:
		log.Fatalf("unknown target %q (want raft-kv | two-layer)", target)
	}
	var err error
	if c.Profile, err = cluster.ParseProfile(profile); err != nil {
		log.Fatal(err)
	}
	return c
}

// rerun is the command line that runs seed alone under this
// invocation's other flags.
func rerun(seed int64) string {
	args := []string{"p2pfl-chaos", "-track", *trackName}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "track" && f.Name != "seed" && f.Name != "seeds" && f.Name != "soak" {
			args = append(args, fmt.Sprintf("-%s=%s", f.Name, f.Value))
		}
	})
	return strings.Join(append(args, "-seed", fmt.Sprint(seed), "-seeds", "1"), " ")
}

// printReport prints a schedule's report, or the named oracle's, which
// has no schedule to count.
func printReport(rep *chaos.Report, name string) {
	s := rep.Stats
	verdict := "PASS"
	if !rep.Passed() {
		verdict = "FAIL"
	}
	if name != "" {
		fmt.Printf("seed %-6d %s oracle  %s: %d SAC rounds\n", rep.Campaign.Seed, name, verdict, s.SACRounds)
	} else {
		fmt.Printf("seed %-6d %s  %s: %d crashes, %d restarts, %d partitions, %d net faults, %d flaps, %d leader changes, %d commits, %d SAC rounds, %d virtual ms\n",
			rep.Campaign.Seed, string(rep.Campaign.Target), verdict,
			s.Crashes, s.Restarts, s.Partitions, s.NetFaults, s.Flaps, s.LeaderChanges, s.Commits, s.SACRounds, s.FinalVirtualMs)
	}
	if s.Byzantines > 0 || s.ByzantineDetections > 0 {
		fmt.Printf("           byzantine: %d adversaries, %d detections\n", s.Byzantines, s.ByzantineDetections)
	}
	if s.Joins > 0 || s.Departs > 0 || s.Handoffs > 0 {
		fmt.Printf("           churn: %d joins, %d departs, %d handoffs\n", s.Joins, s.Departs, s.Handoffs)
	}
	for _, v := range rep.Violations {
		fmt.Printf("  %s\n", v)
	}
}
