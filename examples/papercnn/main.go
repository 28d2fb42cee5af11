// papercnn trains the paper's exact Fig. 5 architecture — the CIFAR-10
// CNN with 1,250,858 parameters — for a few steps on the synthetic
// CIFAR-10 substitute, then runs one secure two-layer aggregation of the
// full 1.25M-dimensional weight vector across three peers. This is the
// "full-scale" path: the experiment drivers default to smaller models so
// thousand-round sweeps stay fast, but nothing in the stack is limited
// to them.
//
//	go run ./examples/papercnn
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/optim"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	model, err := nn.PaperCNN(3, 32, 10, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s\n", model.Summary())
	if model.ParamCount() != costmodel.PaperCNNParams {
		log.Fatalf("parameter count %d != %d", model.ParamCount(), costmodel.PaperCNNParams)
	}

	train, _, err := dataset.Generate(dataset.CIFAR10Like(64, 32, 2))
	if err != nil {
		log.Fatal(err)
	}
	opt := optim.NewAdam(1e-4) // the paper's optimizer and learning rate
	fmt.Println("\ntraining (batch 8, Adam lr=1e-4):")
	for step := 0; step < 4; step++ {
		lo := step * 8 % train.Len()
		x, labels, err := train.Batch(lo, lo+8)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		model.ZeroGrad()
		loss, err := model.Loss(x, labels)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Backward(); err != nil {
			log.Fatal(err)
		}
		if err := opt.Step(model.Params()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  step %d: loss %.4f (%.1fs)\n", step, loss, time.Since(start).Seconds())
	}

	// One secure aggregation of the full weight vector across 3 peers.
	fmt.Println("\ntwo-layer SAC over the full 1.25M-weight vector (3 peers, 2-out-of-3):")
	w := model.WeightVector()
	models := [][]float64{w, w, w}
	sys, err := core.NewSystem(core.Config{Sizes: []int{3}, K: []int{2}}, rng)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := sys.AggregateRound(models, core.RoundSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  aggregated %d weights in %.2fs, traffic %.3f GB\n",
		len(res.Global), time.Since(start).Seconds(), float64(res.Bytes)/1e9)
	if err := model.SetWeightVector(res.Global); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  aggregated model reinstalled — ready for the next round.")
}
