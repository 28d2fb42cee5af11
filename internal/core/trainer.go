package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/sac"
	"repro/internal/telemetry"
)

// ModelFactory builds one architecture instance; each peer gets its own.
type ModelFactory func(rng *rand.Rand) (*nn.Model, error)

// TrainerConfig describes a full federated training run over the
// two-layer aggregation system (or the one-layer baseline).
type TrainerConfig struct {
	// Core is the two-layer topology. With Baseline true, the topology
	// is ignored except for the total peer count.
	Core Config
	// Baseline switches to the original one-layer SAC (Alg. 2).
	Baseline bool

	// Model builds each peer's network; Flat feeds [batch, pixels]
	// inputs (MLPs) instead of image tensors.
	Model ModelFactory
	Flat  bool

	// Data is the synthetic dataset spec; Dist is the paper's per-peer
	// distribution setting.
	Data dataset.Spec
	Dist dataset.Distribution

	// Rounds of federated learning; evaluation happens every EvalEvery
	// rounds (default 1). LearningRate is the Adam step size (paper:
	// 1e-4); Epochs and BatchSize parameterize the local update.
	Rounds       int
	EvalEvery    int
	LearningRate float64
	Epochs       int
	BatchSize    int

	// Workers bounds how many selected clients train concurrently each
	// round. 0 or 1 trains serially. Any value yields bit-identical
	// results: each client owns its model, optimizer, data partition and
	// seeded RNGs, and losses/weights are reduced in client-index order.
	Workers int

	// ClientFraction selects the fraction of peers that train each round
	// (Sec. III-A: the aggregate is over "randomly selected clients").
	// Unselected peers still hold the global model and participate in
	// SAC with a zero FedAvg weight. 0 means every peer trains.
	ClientFraction float64

	// CrashEvery, if positive, schedules one AfterShares dropout in a
	// random subgroup every CrashEvery rounds (fault-injection runs).
	CrashEvery int

	// DP, if non-nil, perturbs each peer's update before it enters the
	// aggregation (the paper's Sec. IV-D differential-privacy option):
	// the local−global delta is L2-clipped to DPClip and noised by the
	// mechanism. DPClip must be positive when DP is set.
	DP     dp.Mechanism
	DPClip float64

	// Seed drives model initialization, shuffling, dropout and share
	// randomness. DataSeed, when non-zero, fixes the dataset and the
	// per-peer partition independently of Seed, so different topologies
	// can be compared on identical data (as the paper's figures do).
	Seed     int64
	DataSeed int64
}

// Series holds per-evaluation metrics from a training run.
type Series struct {
	Round     []int
	TestAcc   []float64
	TrainLoss []float64
	// Bytes is cumulative aggregation traffic up to each evaluation.
	Bytes []int64
	// FinalGlobal is the global weight vector after the last round,
	// recorded so determinism checks can compare runs bit-for-bit.
	FinalGlobal []float64
}

// MovingAverage smooths values with a trailing window (the paper plots
// moving averages in Figs. 6–9).
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	sum := 0.0
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

// RunTraining executes the full federated loop: partition data, local
// updates, two-layer (or baseline) secure aggregation, distribution, and
// periodic evaluation of the global model on the shared test set.
func RunTraining(cfg TrainerConfig) (*Series, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: TrainerConfig.Model is required")
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("core: Rounds = %d", cfg.Rounds)
	}
	if cfg.EvalEvery < 1 {
		cfg.EvalEvery = 1
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1e-4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dataSeed := cfg.DataSeed
	if dataSeed == 0 {
		dataSeed = cfg.Seed
	}
	dataRng := rand.New(rand.NewSource(dataSeed))

	cfg.Data.Seed = dataSeed
	train, test, err := dataset.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	numPeers := cfg.Core.NumPeers()
	parts, err := dataset.Partition(train, numPeers, cfg.Dist, dataRng)
	if err != nil {
		return nil, err
	}

	clients := make([]*fl.Client, numPeers)
	for i := range clients {
		model, err := cfg.Model(rand.New(rand.NewSource(cfg.Seed*100 + int64(i))))
		if err != nil {
			return nil, err
		}
		clients[i] = fl.NewClient(i, model, optim.NewAdam(cfg.LearningRate), parts[i],
			fl.TrainConfig{Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Flat: cfg.Flat},
			rand.New(rand.NewSource(cfg.Seed*200+int64(i))))
	}
	sys, err := NewSystem(cfg.Core, rng)
	if err != nil {
		return nil, err
	}
	evalModel, err := cfg.Model(rand.New(rand.NewSource(cfg.Seed * 300)))
	if err != nil {
		return nil, err
	}

	// All peers start from a shared initialization (as when round 0's
	// global model has been distributed).
	global := clients[0].Weights()

	if cfg.ClientFraction < 0 || cfg.ClientFraction > 1 {
		return nil, fmt.Errorf("core: ClientFraction %v out of [0,1]", cfg.ClientFraction)
	}

	reg := cfg.Core.Telemetry
	clientsSelected := reg.Counter("round/clients_selected")

	series := &Series{}
	losses := make([]float64, numPeers)
	errs := make([]error, numPeers)
	for round := 1; round <= cfg.Rounds; round++ {
		reg.Trace("round/start", 0, -1, telemetry.F("round", int64(round)))
		selected := selectClients(numPeers, cfg.ClientFraction, rng)
		models := make([][]float64, numPeers)
		counts := make([]float64, numPeers)

		// Unselected peers contribute the unchanged global vector (zero
		// FedAvg weight), so they share `global` directly instead of
		// round-tripping it through their model: the aggregation never
		// mutates input vectors, and a peer's own weights are refreshed
		// via SetWeights the next time it is selected.
		var selIdx []int
		for i := range clients {
			if selected[i] {
				selIdx = append(selIdx, i)
			} else {
				models[i] = global
			}
		}
		clientsSelected.Add(int64(len(selIdx)))

		trainOne := func(i int) {
			c := clients[i]
			if err := c.SetWeights(global); err != nil {
				errs[i] = err
				return
			}
			loss, err := c.TrainRound()
			if err != nil {
				errs[i] = err
				return
			}
			losses[i] = loss
			w := c.Weights()
			if cfg.DP != nil {
				w, err = dp.PrivatizeUpdate(w, global, cfg.DPClip, cfg.DP,
					rand.New(rand.NewSource(cfg.Seed*400+int64(round)*1000+int64(i))))
				if err != nil {
					errs[i] = err
					return
				}
			}
			models[i] = w
			counts[i] = float64(c.SampleCount())
		}

		// Train the selected clients, fanning out across Workers
		// goroutines when asked. Each client is self-contained (model,
		// optimizer, partition, per-client and per-(round,client) RNGs),
		// so execution order cannot affect any result; the reductions
		// below walk selIdx in ascending client index, making parallel
		// runs bit-identical to serial ones.
		workers := cfg.Workers
		if workers > len(selIdx) {
			workers = len(selIdx)
		}
		if workers <= 1 {
			for _, i := range selIdx {
				trainOne(i)
			}
		} else {
			idxCh := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range idxCh {
						trainOne(i)
					}
				}()
			}
			for _, i := range selIdx {
				idxCh <- i
			}
			close(idxCh)
			wg.Wait()
		}

		lossSum := 0.0
		trained := len(selIdx)
		for _, i := range selIdx {
			if errs[i] != nil {
				return nil, errs[i]
			}
			lossSum += losses[i]
		}

		var crash map[int]sac.CrashPlan
		if cfg.CrashEvery > 0 && round%cfg.CrashEvery == 0 && !cfg.Baseline {
			// Drop one random non-leader peer in a random subgroup after
			// it has shared (the Fig. 3 failure).
			g := rng.Intn(len(cfg.Core.Sizes))
			if cfg.Core.Sizes[g] > 1 {
				victim := 1 + rng.Intn(cfg.Core.Sizes[g]-1)
				crash = map[int]sac.CrashPlan{g: {victim: sac.AfterShares}}
			}
		}

		var res *RoundResult
		if cfg.Baseline {
			res, err = sys.BaselineAggregate(models)
		} else {
			res, err = sys.AggregateRound(models, RoundSpec{SampleCounts: counts, Crash: crash, FedLeader: -1})
		}
		if err != nil {
			return nil, err
		}
		global = res.Global
		reg.Trace("round/end", 0, -1,
			telemetry.F("round", int64(round)),
			telemetry.F("clients", int64(len(selIdx))),
			telemetry.F("bytes", res.Bytes))

		if round%cfg.EvalEvery == 0 || round == cfg.Rounds {
			if err := evalModel.SetWeightVector(global); err != nil {
				return nil, err
			}
			acc, _, err := fl.EvaluateModel(evalModel, test, cfg.Flat)
			if err != nil {
				return nil, err
			}
			series.Round = append(series.Round, round)
			series.TestAcc = append(series.TestAcc, acc)
			series.TrainLoss = append(series.TrainLoss, lossSum/float64(trained))
			series.Bytes = append(series.Bytes, sys.Counter().TotalBytes())
		}
	}
	series.FinalGlobal = global
	return series, nil
}

// selectClients marks the peers that train this round: all of them when
// fraction is 0 or 1, otherwise a uniform sample of ⌈fraction·n⌉ (at
// least one, so every round trains somebody).
func selectClients(n int, fraction float64, rng *rand.Rand) []bool {
	sel := make([]bool, n)
	if fraction == 0 || fraction >= 1 {
		for i := range sel {
			sel[i] = true
		}
		return sel
	}
	want := int(fraction*float64(n) + 0.5)
	if want < 1 {
		want = 1
	}
	for _, i := range rng.Perm(n)[:want] {
		sel[i] = true
	}
	return sel
}

// FinalAcc returns the last recorded test accuracy (0 if empty).
func (s *Series) FinalAcc() float64 {
	if len(s.TestAcc) == 0 {
		return 0
	}
	return s.TestAcc[len(s.TestAcc)-1]
}

// FinalLoss returns the last recorded training loss (0 if empty).
func (s *Series) FinalLoss() float64 {
	if len(s.TrainLoss) == 0 {
		return 0
	}
	return s.TrainLoss[len(s.TrainLoss)-1]
}
