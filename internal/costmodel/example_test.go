package costmodel_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/costmodel"
)

// Eq. 4: the two-layer n-out-of-n cost in units of |w|.
func ExampleTwoLayerUnits() {
	units, _ := costmodel.TwoLayerUnits(6, 5) // m=6 subgroups of n=5
	w := costmodel.WeightBytes(costmodel.PaperCNNParams, costmodel.BytesPerParam32)
	fmt.Printf("%d units = %.2f Gb for the paper's CNN\n", units, costmodel.Gigabits(units*w))
	// Output: 178 units = 7.12 Gb for the paper's CNN
}

// Fig. 13: the total cost of one aggregation at N=30 as the peers split
// into m subgroups, n-out-of-n, next to what a real two-layer round
// moves over byte-counting meshes.
func ExampleTwoLayerUnevenUnits() {
	const N = 30
	w := costmodel.WeightBytes(costmodel.PaperCNNParams, costmodel.BytesPerParam32)
	fmt.Printf("model: paper CNN, %d params, |w| = %.4f Gb\n", costmodel.PaperCNNParams, costmodel.Gigabits(w))
	base, _ := costmodel.BaselineUnits(N)
	fmt.Printf("m=%-3d %8.2f Gb   (original one-layer SAC)\n", 1, costmodel.Gigabits(base*w))
	for _, m := range []int{2, 3, 4, 6, 10, 15, 30} {
		sizes, _ := core.SplitPeers(N, m)
		units, _ := costmodel.TwoLayerUnevenUnits(sizes)
		fmt.Printf("m=%-3d %8.2f Gb   (analytic %d units, measured %d units)\n",
			m, costmodel.Gigabits(units*w), units, measuredUnits(sizes))
	}
	// Output:
	// model: paper CNN, 1250858 params, |w| = 0.0400 Gb
	// m=1      69.65 Gb   (original one-layer SAC)
	// m=2      19.13 Gb   (analytic 478 units, measured 478 units)
	// m=3      13.13 Gb   (analytic 328 units, measured 328 units)
	// m=4      10.17 Gb   (analytic 254 units, measured 254 units)
	// m=6       7.12 Gb   (analytic 178 units, measured 178 units)
	// m=10      4.72 Gb   (analytic 118 units, measured 118 units)
	// m=15      3.52 Gb   (analytic 88 units, measured 88 units)
	// m=30      2.32 Gb   (analytic 58 units, measured 58 units)
}

// measuredUnits runs one two-layer aggregation of 32-weight models over
// the given subgroups and converts its traffic back to |w| units.
func measuredUnits(sizes []int) int64 {
	cfg := core.Config{Sizes: sizes}
	sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	const dim = 32
	rng := rand.New(rand.NewSource(2))
	models := make([][]float64, cfg.NumPeers())
	for i := range models {
		models[i] = make([]float64, dim)
		for j := range models[i] {
			models[i][j] = rng.NormFloat64()
		}
	}
	res, err := sys.AggregateRound(models, core.RoundSpec{})
	if err != nil {
		panic(err)
	}
	return res.Bytes / (8 * dim)
}

// Fig. 14 and the paper's headline (Sec. VII-B): k-out-of-n subgroups
// at N=30 against the one-layer SAC. At n,k = 3,2 the two-layer system
// is 10.36× cheaper, at n,k = 3,3 14.75×.
func ExampleTwoLayerUnevenKNUnits() {
	const N = 30
	w := costmodel.WeightBytes(costmodel.PaperCNNParams, costmodel.BytesPerParam32)
	base, _ := costmodel.BaselineUnits(N)
	for _, nk := range [][2]int{{3, 3}, {3, 2}, {5, 5}, {5, 3}} {
		n, k := nk[0], nk[1]
		sizes, _ := core.SplitPeers(N, (N+n-1)/n)
		units, _ := costmodel.TwoLayerUnevenKNUnits(sizes, k)
		fmt.Printf("%d-%d: %8.2f Gb   (%.2fx below the %.2f Gb baseline)\n",
			k, n, costmodel.Gigabits(units*w), float64(base)/float64(units), costmodel.Gigabits(base*w))
	}
	// Output:
	// 3-3:     4.72 Gb   (14.75x below the 69.65 Gb baseline)
	// 2-3:     6.72 Gb   (10.36x below the 69.65 Gb baseline)
	// 5-5:     7.12 Gb   (9.78x below the 69.65 Gb baseline)
	// 3-5:    16.25 Gb   (4.29x below the 69.65 Gb baseline)
}

// Eq. 10: X-layer aggregation stays O(nN) no matter the depth — the
// cost per peer approaches n+2 model transfers a round.
func ExampleMultiLayerUnits() {
	w := costmodel.WeightBytes(costmodel.PaperCNNParams, costmodel.BytesPerParam32)
	for _, n := range []int{3, 5} {
		fmt.Printf("n = %d:\n%-3s %8s %8s %10s %11s\n", n, "X", "peers N", "units", "Gb", "units/peer")
		for x := 1; x <= 5; x++ {
			peers, _ := costmodel.MultiLayerPeers(n, x)
			units, _ := costmodel.MultiLayerUnits(n, x)
			fmt.Printf("%-3d %8d %8d %10.2f %11.2f\n",
				x, peers, units, costmodel.Gigabits(units*w), float64(units)/float64(peers))
		}
	}
	// Output:
	// n = 3:
	// X    peers N    units         Gb  units/peer
	// 1          3       10       0.40        3.33
	// 2          9       40       1.60        4.44
	// 3         21      100       4.00        4.76
	// 4         45      220       8.81        4.89
	// 5         93      460      18.41        4.95
	// n = 5:
	// X    peers N    units         Gb  units/peer
	// 1          5       28       1.12        5.60
	// 2         25      168       6.72        6.72
	// 3        105      728      29.14        6.93
	// 4        425     2968     118.80        6.98
	// 5       1705    11928     477.45        7.00
}
