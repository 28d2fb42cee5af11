// Command p2pfl-bench is a communication-cost calculator for the paper's
// closed forms (Sec. VII): given N, m (or n) and k it prints the
// baseline, two-layer and multi-layer costs and the reduction factor.
//
//	p2pfl-bench -N 30 -n 3 -k 2
//	p2pfl-bench -N 30 -sweep            # the Fig. 13 style m-sweep
//	p2pfl-bench -params 1250858 -bits 32
//	p2pfl-bench -churn 10               # directory + handoff traffic for
//	                                    # 10 joins and 10 leaves (DESIGN.md §14)
//	p2pfl-bench -multilayer             # run the 1k/10k/100k scale tiers for
//	                                    # real and cross-check measured bytes
//	                                    # against Eq. 10 (exit 1 on mismatch)
//	p2pfl-bench -multilayer -peers 50000 -n 4
//	                                    # same check on a custom tier: the
//	                                    # shallowest degree-4 tree ≥ 50k peers
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/transport"
)

func main() {
	var (
		N      = flag.Int("N", 30, "total number of peers")
		n      = flag.Int("n", 3, "subgroup size")
		k      = flag.Int("k", 0, "SAC threshold (0: n-out-of-n)")
		params = flag.Int("params", costmodel.PaperCNNParams, "model parameter count")
		bits   = flag.Int("bits", 32, "bits per parameter (32 or 64)")
		sweep  = flag.Bool("sweep", false, "sweep m = 1..N (Fig. 13 style)")
		layers = flag.Int("layers", 0, "if > 0, print X-layer costs up to this depth (Sec. VII-C)")
		churn  = flag.Int("churn", 0, "if > 0, print continuous-churn control-plane costs for this many joins and leaves")

		multilayer = flag.Bool("multilayer", false, "run the X-layer scale tiers for real and cross-check measured bytes against Eq. 10")
		tiers      = flag.String("tiers", "1k,10k,100k", "comma-separated tier names to run with -multilayer")
		peers      = flag.Int64("peers", 0, "if > 0 with -multilayer, run one custom tier: the shallowest degree-n tree holding this many peers")
		dim        = flag.Int("dim", 64, "model dimension for -multilayer aggregations")
	)
	flag.Parse()
	m, err := subgroups(*N, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *multilayer {
		runMultiLayerTiers(*tiers, *peers, *n, *dim)
		return
	}

	bytesPer := costmodel.BytesPerParam32
	if *bits == 64 {
		bytesPer = costmodel.BytesPerParam64
	} else if *bits != 32 {
		fmt.Fprintln(os.Stderr, "bits must be 32 or 64")
		os.Exit(2)
	}
	w := costmodel.WeightBytes(*params, bytesPer)
	fmt.Printf("|w| = %d bytes (%.4f Gb) for %d params at %d bits\n\n", w, costmodel.Gigabits(w), *params, *bits)

	if *sweep {
		base, err := costmodel.BaselineUnits(*N)
		check(err)
		fmt.Printf("%-6s %-14s %12s %10s\n", "m", "sizes", "units(|w|)", "Gb")
		fmt.Printf("%-6d %-14s %12d %10.2f   (one-layer SAC)\n", 1, fmt.Sprintf("[%d]", *N), base, costmodel.Gigabits(base*w))
		for m := 2; m <= *N; m++ {
			sizes, err := core.SplitPeers(*N, m)
			check(err)
			units, err := costmodel.TwoLayerUnevenUnits(sizes)
			check(err)
			fmt.Printf("%-6d %-14s %12d %10.2f\n", m, compact(sizes), units, costmodel.Gigabits(units*w))
		}
		return
	}

	if *layers > 0 {
		fmt.Printf("%-4s %10s %14s %10s\n", "X", "peers N", "units(|w|)", "Gb")
		for x := 1; x <= *layers; x++ {
			peers, err := costmodel.MultiLayerPeers(*n, x)
			check(err)
			units, err := costmodel.MultiLayerUnits(*n, x)
			check(err)
			fmt.Printf("%-4d %10d %14d %10.2f\n", x, peers, units, costmodel.Gigabits(units*w))
		}
		return
	}

	if *churn > 0 {
		// Control-plane traffic for a churn episode: each committed
		// directory update replicates once to each of the FedAvg layer's
		// m−1 followers, and each departure's graceful handoff ships one
		// checkpoint-framed model. Address length matches the cluster
		// layer's "peer-<id>:7100" convention at 4-digit ids.
		const addrLen = len("peer-1000:7100")
		dir, err := costmodel.DirectoryChurnBytes(*churn, *churn, m, addrLen)
		check(err)
		hand, err := costmodel.HandoffModelBytes(*params)
		check(err)
		joinB, err := costmodel.DirectoryUpdateBytes(addrLen)
		check(err)
		leaveB, _ := costmodel.DirectoryUpdateBytes(0)
		fmt.Printf("directory update:       %8d B per join, %d B per leave (wire frames)\n", joinB, leaveB)
		fmt.Printf("directory replication:  %8d B for %d joins + %d leaves across the m=%d FedAvg layer\n",
			dir, *churn, *churn, m)
		fmt.Printf("graceful handoff:       %8d B per departure (%d-param model checkpoint)\n", hand, *params)
		fmt.Printf("handoff total:          %8d B (%.4f Gb) for %d departures\n",
			hand*int64(*churn), costmodel.Gigabits(hand*int64(*churn)), *churn)
		return
	}

	kk := *k
	if kk == 0 {
		kk = *n
	}
	sizes, err := core.SplitPeers(*N, m)
	check(err)
	base, err := costmodel.BaselineUnits(*N)
	check(err)
	two, err := costmodel.TwoLayerUnevenKNUnits(sizes, kk)
	check(err)
	fmt.Printf("baseline one-layer SAC: %8d units  %8.2f Gb\n", base, costmodel.Gigabits(base*w))
	fmt.Printf("two-layer %d-out-of-%d:  %8d units  %8.2f Gb  (m=%d, sizes %s)\n",
		kk, *n, two, costmodel.Gigabits(two*w), m, compact(sizes))
	fmt.Printf("reduction: %.2fx\n", float64(base)/float64(two))
}

// runMultiLayerTiers is the -multilayer mode: it executes one real
// X-layer aggregation per scale tier and cross-checks the transport
// counter against the Eq. 10 closed form, exactly — measured bytes must
// equal MultiLayerUnits(n, X) · 8 · dim, and the global must equal the
// plain mean of the inputs to floating-point tolerance. Any mismatch
// exits 1: the closed form and the engine are not allowed to drift.
func runMultiLayerTiers(tierNames string, customPeers int64, degree, dim int) {
	var run []costmodel.ScaleTier
	if customPeers > 0 {
		tier, err := costmodel.TierFor(degree, customPeers)
		check(err)
		run = append(run, tier)
	} else {
		byName := make(map[string]costmodel.ScaleTier)
		for _, t := range costmodel.ScaleTiers() {
			byName[t.Name] = t
		}
		for _, name := range strings.Split(tierNames, ",") {
			name = strings.TrimSpace(name)
			t, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown tier %q (have 1k, 10k, 100k)\n", name)
				os.Exit(2)
			}
			run = append(run, t)
		}
	}

	fmt.Printf("%-14s %6s %3s %10s %16s %16s %10s %9s\n",
		"tier", "n", "X", "peers", "measured B", "closed-form B", "max|err|", "wall")
	scratch := &core.MultiLayerScratch{}
	failed := false
	for _, tier := range run {
		topo, err := core.BuildMultiLayerTopology(tier.Degree, tier.Layers)
		check(err)
		rng := rand.New(rand.NewSource(1))
		models := make([][]float64, topo.N)
		mean := make([]float64, dim)
		for i := range models {
			models[i] = make([]float64, dim)
			for d := range models[i] {
				models[i][d] = rng.NormFloat64()
				mean[d] += models[i][d]
			}
		}
		for d := range mean {
			mean[d] /= float64(topo.N)
		}

		counter := transport.NewCounter()
		start := time.Now()
		res, err := core.AggregateMultiLayerOpts(topo, models, nil, rand.New(rand.NewSource(2)), counter,
			core.MultiLayerOptions{Scratch: scratch})
		check(err)
		wall := time.Since(start)

		units, err := costmodel.MultiLayerUnits(tier.Degree, tier.Layers)
		check(err)
		want := units * 8 * int64(dim)
		maxErr := 0.0
		for d := range mean {
			if e := math.Abs(res.Global[d] - mean[d]); e > maxErr {
				maxErr = e
			}
		}
		status := ""
		if res.Bytes != want {
			status = "  MISMATCH"
			failed = true
		}
		if tol := 1e-8 * math.Sqrt(float64(topo.N)); maxErr > tol {
			status += "  INEXACT"
			failed = true
		}
		fmt.Printf("%-14s %6d %3d %10d %16d %16d %10.2e %9s%s\n",
			tier.Name, tier.Degree, tier.Layers, topo.N, res.Bytes, want, maxErr,
			wall.Round(time.Millisecond), status)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "multilayer tier check FAILED: measured traffic or accuracy drifted from the closed form")
		os.Exit(1)
	}
	fmt.Printf("\nall tiers: measured bytes = (N−1)(n+2)·|w| exactly (Eq. 10, |w| = %d B)\n", 8*dim)
}

// subgroups is m, how many subgroups of at most n peers N peers split
// into; n < 1 is a usage error.
func subgroups(N, n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("n must be at least 1, got %d", n)
	}
	return (N + n - 1) / n, nil
}

func compact(sizes []int) string {
	s := "["
	for i, v := range sizes {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(v)
		if i == 5 && len(sizes) > 7 {
			return s + fmt.Sprintf(" …×%d]", len(sizes)-6)
		}
	}
	return s + "]"
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
