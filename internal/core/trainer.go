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

	// Workers bounds how many clients train concurrently each round. 0
	// or 1 trains serially. Any value yields bit-identical results: each
	// client owns its model, optimizer, data partition and seeded RNGs,
	// and losses/weights are reduced in client-index order.
	Workers int

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

	reg := cfg.Core.Telemetry
	clientsSelected := reg.Counter("round/clients_selected")

	series := &Series{}
	losses := make([]float64, numPeers)
	errs := make([]error, numPeers)
	for round := 1; round <= cfg.Rounds; round++ {
		reg.Trace("round/start", 0, -1, telemetry.F("round", int64(round)))
		models := make([][]float64, numPeers)
		counts := make([]float64, numPeers)
		clientsSelected.Add(int64(numPeers))

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

		// Every peer trains every round, fanning out across Workers
		// goroutines when asked. Each client is self-contained (model,
		// optimizer, partition, per-client and per-(round,client) RNGs),
		// so execution order cannot affect any result; the reductions
		// below walk the clients in ascending index, making parallel
		// runs bit-identical to serial ones.
		workers := min(cfg.Workers, numPeers)
		if workers <= 1 {
			for i := range clients {
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
			for i := range clients {
				idxCh <- i
			}
			close(idxCh)
			wg.Wait()
		}

		lossSum := 0.0
		for i := range clients {
			if errs[i] != nil {
				return nil, errs[i]
			}
			lossSum += losses[i]
		}

		var res *RoundResult
		if cfg.Baseline {
			res, err = sys.BaselineAggregate(models)
		} else {
			res, err = sys.AggregateRound(models, RoundSpec{SampleCounts: counts, FedLeader: -1})
		}
		if err != nil {
			return nil, err
		}
		global = res.Global
		reg.Trace("round/end", 0, -1,
			telemetry.F("round", int64(round)),
			telemetry.F("clients", int64(numPeers)),
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
			series.TrainLoss = append(series.TrainLoss, lossSum/float64(numPeers))
			series.Bytes = append(series.Bytes, sys.Counter().TotalBytes())
		}
	}
	series.FinalGlobal = global
	return series, nil
}

// FinalAcc returns the last recorded test accuracy (0 if empty).
func (s *Series) FinalAcc() float64 {
	if len(s.TestAcc) == 0 {
		return 0
	}
	return s.TestAcc[len(s.TestAcc)-1]
}
