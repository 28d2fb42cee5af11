package core_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sac"
)

// The two-layer aggregation in a nutshell: six peers in two fault-
// tolerant subgroups produce exactly the mean of their models, at a
// fraction of the one-layer SAC's traffic.
func ExampleSystem_AggregateRound() {
	sys, err := core.NewSystem(core.Config{
		Sizes: []int{3, 3}, // two subgroups of three peers
		K:     []int{2},    // 2-out-of-3: one dropout per subgroup is fine
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	models := [][]float64{
		{1}, {2}, {3}, // subgroup 0
		{4}, {5}, {6}, // subgroup 1
	}
	res, err := sys.AggregateRound(models, core.RoundSpec{})
	if err != nil {
		panic(err)
	}
	// Eq. 5 with m=2, n=3, k=2: {(9−6+2)·6 + 2·2 − 2}·|w| = 32 × 8 bytes.
	fmt.Printf("global = %.1f (bytes moved: %d)\n", res.Global[0], res.Bytes)
	// Output: global = 3.5 (bytes moved: 256)
}

// A peer dropping out mid-protocol (the paper's Fig. 3) does not stop
// the aggregation, and its model still counts.
func ExampleSystem_AggregateRound_dropout() {
	sys, err := core.NewSystem(core.Config{Sizes: []int{3}, K: []int{2}},
		rand.New(rand.NewSource(2)))
	if err != nil {
		panic(err)
	}
	models := [][]float64{{3}, {6}, {9}}
	crash := map[int]sac.CrashPlan{0: {2: sac.AfterShares}}
	res, err := sys.AggregateRound(models, core.RoundSpec{Crash: crash})
	if err != nil {
		panic(err)
	}
	fmt.Printf("global = %.1f with %d contributors\n", res.Global[0], 3)
	// Output: global = 6.0 with 3 contributors
}

// SplitPeers divides peers the way the paper's figures do.
func ExampleSplitPeers() {
	sizes, _ := core.SplitPeers(30, 4)
	fmt.Println(sizes)
	// Output: [8 8 7 7]
}
