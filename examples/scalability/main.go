// Scalability: the paper's communication-cost story (Sec. VII).
//
// Prints the Fig. 13 m-sweep at N=30, the Fig. 14 k-n comparison, and
// the headline reduction factors (10.36× at n,k,N = 3,2,30) — each
// cross-validated against a byte-accounted aggregation run.
//
//	go run ./examples/scalability
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/costmodel"
)

func main() {
	const N = 30
	w := costmodel.WeightBytes(costmodel.PaperCNNParams, costmodel.BytesPerParam32)
	fmt.Printf("model: paper CNN, %d params, |w| = %.4f Gb\n\n", costmodel.PaperCNNParams, costmodel.Gigabits(w))

	fmt.Println("Fig. 13 — total cost per aggregation vs m (N=30, n-out-of-n):")
	base, err := costmodel.BaselineUnits(N)
	must(err)
	fmt.Printf("  m=%-3d %8.2f Gb   (original one-layer SAC)\n", 1, costmodel.Gigabits(base*w))
	for _, m := range []int{2, 3, 4, 6, 10, 15, 30} {
		sizes, err := core.SplitPeers(N, m)
		must(err)
		units, err := costmodel.TwoLayerUnevenUnits(sizes)
		must(err)
		measured := measure(sizes, 0)
		fmt.Printf("  m=%-3d %8.2f Gb   (analytic %d units, measured %d units)\n",
			m, costmodel.Gigabits(units*w), units, measured)
	}

	fmt.Println("\nFig. 14 — k-out-of-n settings at N=30:")
	for _, nk := range [][2]int{{3, 3}, {3, 2}, {5, 5}, {5, 3}} {
		n, k := nk[0], nk[1]
		m := (N + n - 1) / n
		sizes, err := core.SplitPeers(N, m)
		must(err)
		units, err := costmodel.TwoLayerUnevenKNUnits(sizes, k)
		must(err)
		fmt.Printf("  %d-%d: %8.2f Gb   (%.2fx below the %.2f Gb baseline)\n",
			k, n, costmodel.Gigabits(units*w), float64(base)/float64(units), costmodel.Gigabits(base*w))
	}

	fmt.Println("\nheadline (paper Sec. VII-B):")
	r, err := costmodel.Reduction(30, 10, 3, 2)
	must(err)
	fmt.Printf("  n,k,N = 3,2,30 → %.2fx cost reduction (paper: 10.36x)\n", r)
	r, err = costmodel.Reduction(30, 10, 3, 3)
	must(err)
	fmt.Printf("  n,k,N = 3,3,30 → %.2fx cost reduction (paper: 14.75x)\n", r)
}

// measure runs a real two-layer aggregation over byte-counting meshes and
// converts its traffic back to |w| units.
func measure(sizes []int, k int) int64 {
	cfg := core.Config{Sizes: sizes}
	if k > 0 {
		cfg.K = []int{k}
	}
	sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(1)))
	must(err)
	total := 0
	for _, s := range sizes {
		total += s
	}
	const dim = 32
	rng := rand.New(rand.NewSource(2))
	models := make([][]float64, total)
	for i := range models {
		m := make([]float64, dim)
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		models[i] = m
	}
	res, err := sys.AggregateRound(models, core.RoundSpec{})
	must(err)
	return res.Bytes / int64(8*dim)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
