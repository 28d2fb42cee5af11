// Package integration ties the whole system of the paper together: the
// two-layer Raft (internal/cluster, on virtual time) elects and tracks
// the leaders that the two-layer aggregation (internal/core) uses each
// round, while peers train real models (internal/fl, internal/nn). The
// FedAvg leader is killed mid-training and learning continues after the
// Raft layers recover — the end-to-end claim of the paper.
package integration

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
)

func TestEndToEndTwoLayerSystem(t *testing.T) {
	const (
		numSub  = 3
		subSize = 3
		peers   = numSub * subSize
	)
	// --- consensus backend on virtual time ---
	cl, err := cluster.New(cluster.Options{
		NumSubgroups:    numSub,
		SubgroupSize:    subSize,
		ElectionTickMin: 50,
		ElectionTickMax: 100,
		Latency:         15 * simnet.Millisecond,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bootstrap(30 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	cl.Sim.RunFor(500 * simnet.Millisecond)

	// --- federated learning side ---
	rng := rand.New(rand.NewSource(12))
	train, test, err := dataset.Generate(dataset.Tiny(4, peers*40, 200, 13))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(train, peers, dataset.IID, rng)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, peers)
	for i := range clients {
		model := nn.MLP(train.PixelDim(), []int{16}, train.Classes, rand.New(rand.NewSource(int64(100+i))))
		clients[i] = fl.NewClient(i, model, optim.NewAdam(2e-3), parts[i],
			fl.TrainConfig{Epochs: 1, BatchSize: 10, Flat: true}, rand.New(rand.NewSource(int64(200+i))))
	}
	agg, err := core.NewSystem(core.Config{
		Sizes: []int{subSize, subSize, subSize},
		K:     []int{2},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	evalModel := nn.MLP(train.PixelDim(), []int{16}, train.Classes, rand.New(rand.NewSource(300)))
	global := clients[0].Weights()

	crashed := map[uint64]bool{}
	runRound := func(round int) {
		t.Helper()
		geo := cl.RoundGeometry()
		if slices.Contains(geo.Leaders, -1) {
			t.Fatalf("round %d: a subgroup has no leader among its peers: %v", round, geo.Leaders)
		}
		models := make([][]float64, peers)
		counts := make([]float64, peers)
		for i, c := range clients {
			if err := c.SetWeights(global); err != nil {
				t.Fatal(err)
			}
			if crashed[uint64(i+1)] {
				// A crashed peer trains nothing; its old model enters
				// SAC only if it is still alive at protocol time — here
				// we simply keep its last weights, which the k-out-of-n
				// protocol tolerates.
				models[i] = c.Weights()
				counts[i] = 0
				continue
			}
			if _, err := c.TrainRound(); err != nil {
				t.Fatal(err)
			}
			models[i] = c.Weights()
			counts[i] = float64(c.SampleCount())
		}
		res, err := agg.AggregateRound(models, core.RoundSpec{
			SampleCounts: counts,
			Leaders:      geo.Leaders,
			FedLeader:    geo.FedLeader,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		global = res.Global
		// Each aggregation round takes some wall-clock; advance the
		// consensus layer accordingly.
		cl.Sim.RunFor(200 * simnet.Millisecond)
	}

	for round := 1; round <= 3; round++ {
		runRound(round)
	}

	// --- kill the FedAvg leader mid-training (Sec. V-B1) ---
	victim := cl.FedAvgLeader()
	victimSub := cl.Peer(victim).Subgroup
	if err := cl.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	crashed[victim] = true
	if _, _, err := cl.WaitFedAvgLeader(victim, 30*simnet.Second); err != nil {
		t.Fatal(err)
	}
	newSub, _, err := cl.WaitSubgroupLeader(victimSub, victim, 30*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitJoined(newSub, 60*simnet.Second); err != nil {
		t.Fatal(err)
	}

	for round := 4; round <= 6; round++ {
		runRound(round)
	}

	if err := evalModel.SetWeightVector(global); err != nil {
		t.Fatal(err)
	}
	acc, _, err := fl.EvaluateModel(evalModel, test, true)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("end-to-end accuracy after leader crash = %v", acc)
	}
	// The new leadership really is different where it matters.
	if cl.FedAvgLeader() == victim {
		t.Fatal("dead peer still leads")
	}
}

// The aggregation must respect arbitrary Raft-elected leader positions:
// results are identical regardless of which member leads each subgroup.
func TestLeaderPositionDoesNotChangeResult(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	models := make([][]float64, 6)
	for i := range models {
		m := make([]float64, 8)
		for j := range m {
			m[j] = r.NormFloat64()
		}
		models[i] = m
	}
	var want []float64
	for _, leaders := range [][]int{{0, 0}, {1, 2}, {2, 1}} {
		sys, err := core.NewSystem(core.Config{Sizes: []int{3, 3}, K: []int{2}}, rand.New(rand.NewSource(22)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.AggregateRound(models, core.RoundSpec{Leaders: leaders, FedLeader: -1})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Global
			continue
		}
		for j := range want {
			if d := res.Global[j] - want[j]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("leaders %v change the aggregate", leaders)
			}
		}
	}
}
