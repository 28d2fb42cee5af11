package core_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
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

// Federated training of six peers in two 2-out-of-3 SAC subgroups with a
// FedAvg layer on top, the paper's two-layer aggregation, against the
// original one-layer SAC over all six on the same workload: the same
// accuracy at 1.88× less aggregation traffic.
func ExampleRunTraining() {
	base := core.TrainerConfig{
		Model: func(rng *rand.Rand) (*nn.Model, error) {
			return nn.MLP(64, []int{32}, 4, rng), nil
		},
		Flat:         true,
		Data:         dataset.Tiny(4, 360, 200, 7),
		Dist:         dataset.IID,
		Rounds:       30,
		EvalEvery:    5,
		LearningRate: 2e-3,
		Seed:         7,
	}
	twoLayer := base
	twoLayer.Core = core.Config{Sizes: []int{3, 3}, K: []int{2}}
	ts, err := core.RunTraining(twoLayer)
	if err != nil {
		panic(err)
	}
	baseline := base
	baseline.Core = core.Config{Sizes: []int{6}}
	baseline.Baseline = true
	bs, err := core.RunTraining(baseline)
	if err != nil {
		panic(err)
	}
	fmt.Println("round  two-layer acc  baseline acc")
	for i := range ts.Round {
		fmt.Printf("%5d %13.1f%% %12.1f%%\n", ts.Round[i], 100*ts.TestAcc[i], 100*bs.TestAcc[i])
	}
	tb, bb := ts.Bytes[len(ts.Bytes)-1], bs.Bytes[len(bs.Bytes)-1]
	fmt.Printf("aggregation traffic: two-layer %d bytes, baseline %d bytes (%.2fx reduction)\n",
		tb, bb, float64(bb)/float64(tb))
	// Output:
	// round  two-layer acc  baseline acc
	//     5          50.5%         50.5%
	//    10          83.0%         83.0%
	//    15          97.5%         97.5%
	//    20          98.0%         98.0%
	//    25          98.5%         98.5%
	//    30          99.5%         99.5%
	// aggregation traffic: two-layer 16988160 bytes, baseline 31852800 bytes (1.88x reduction)
}
