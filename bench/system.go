package main

// This is the only file of the benchmark that imports repro/internal/*:
// every build, round, oracle, probe and teardown of every workload lives
// here, so a change to the repo's API has one place to follow. The rest of
// bench/ sees the workload interface, sizes, outcome and traffic.
//
// Each workload sets topology, sizes and the one option that defines it
// (K, the crash, the compression scheme, the SAC mode) and leaves every
// other field of core.Config, sac.Config, cluster.Options, fl.TrainConfig
// and core.MultiLayerOptions.Workers at its zero value: the benchmark
// measures the repo's defaults.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/raft"
	"repro/internal/sac"
	"repro/internal/secretshare"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sizes holds everything a workload's cost depends on. Round counts are
// fixed, not time-boxed, so work, bytes, allocations and accuracy are the
// same run to run.
type sizes struct {
	Rounds  int // timed rounds of the untraced run
	Traced  int // rounds in each half (tracer off, then on) of the traced run
	Dim     int // model dimension; train takes its own from the model
	Depth   int // xlayer: tree depth at degree 4
	Steps   int // failover: rounds per episode
	CrashAt int // failover: step at which the FedAvg leader is crashed
	Samples int // train: samples per peer
	Image   int // train: image side
	Batch   int // train: minibatch
}

// outcome is what one round reports to the harness.
type outcome struct {
	Bytes  int64 // data-plane bytes of this round (transport.Counter delta)
	Missed bool  // failover: due while leadership was unresolved
	Err    error
}

// traffic is a cumulative snapshot of message and byte counts by kind;
// the harness diffs two snapshots. The pseudo-kind "raft" carries the
// consensus traffic of the simulated cluster.
type traffic struct{ Bytes, Msgs map[string]int64 }

// Kind names the harness turns into metric suffixes.
const (
	kindShare       = sac.KindShare
	kindSubtotal    = sac.KindSubtotal
	kindRecovery    = sac.KindRecovery
	kindRecoveryReq = sac.KindRecoveryReq
	kindUpload      = core.KindUpload
	kindDownload    = core.KindDownload
	kindBroadcast   = core.KindBroadcast
	kindRaft        = "raft"
)

// workload is one benchmark scenario. inputs runs once before any clock;
// construct is the timed set-up and may run several times (each call
// replaces the previous construction); prepare is untimed per-round set-up
// charged to setup_s; round is the timed unit (warm-up rounds have r < 0);
// check is the untimed oracle for the round just run and returns the
// closed-form byte count it compared against; facts returns the workload's
// own measurements by name; probes replays opaque inner calls (traced run
// only).
type workload interface {
	inputs(seed int64, sz sizes) error
	construct(tr *tracer) error
	prepare(r int) error
	round(r int) outcome
	check(r int) (wantBytes int64, err error)
	traffic() traffic
	facts() map[string]float64
	probes() (map[string]float64, error)
	close() error
}

// base holds what every workload keeps and the methods most leave empty.
type base struct {
	sz   sizes
	seed int64
	tr   *tracer
}

func (b *base) inputs(seed int64, sz sizes) error { b.seed, b.sz = seed, sz; return nil }
func (*base) prepare(int) error                   { return nil }
func (*base) probes() (map[string]float64, error) { return nil, nil }
func (*base) close() error                        { return nil }

var workloadWhy = []struct{ Name, Why string }{
	{"train", "9 peers 3x3 k=2 training TinyCNN then aggregating: local training is ~99% of the round, so an aggregation-only change predicts no change here"},
	{"agg_mem", "15 peers 5x3 k=2 at 1.25M weights in memory with one peer dropped every round: bandwidth-bound Divide/subtotal/FedAvg kernels plus the k-out-of-n recovery path"},
	{"agg_tcp", "the agg_mem round without the crash over loopback TCP meshes: wire frames, sockets and per-message acks dominate, so a codec or pipelining change shows here only"},
	{"agg_compress", "the agg_mem round with top-k 0.1 compression of the FedAvg legs: compress is the largest row here and absent from agg_mem"},
	{"xlayer", "X-layer aggregation of 118,096 peers at dim 64: ~39k tiny SACs, so per-call overhead, allocation and scheduling dominate instead of long vectors"},
	{"failover", "episodes on a fresh 5x5 raft cluster whose FedAvg leader is crashed mid-training: raft/simnet/cluster do the work and recovery is exact by seed"},
}

// ungated is the one workload BENCHMARK.json leaves out, so the driver
// neither runs nor gates it: its ~39k goroutine-scheduled SACs a round make
// even its CPU time spread 10 % (set-up 15 %) between runs of the same
// code, above a third of the bound, and the driver's time limit is better
// spent on longer runs of the others. The full set and the self-check
// still run it.
const ungated = "xlayer"

func newWorkload(name string) (workload, error) {
	switch name {
	case "train":
		return &trainLoad{}, nil
	case "agg_mem":
		return &aggLoad{crash: true}, nil
	case "agg_compress":
		return &aggLoad{comp: compress.Config{Scheme: compress.TopK, Frac: 0.1}}, nil
	case "agg_tcp":
		return &tcpLoad{}, nil
	case "xlayer":
		return &xlayerLoad{}, nil
	case "failover":
		return &failoverLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fullSizes are the benchmark's sizes, calibrated so a run measures about
// `seconds` of rounds on the 2-core reference host. smokeSizes are the
// test's.
func fullSizes(name string, seconds int) sizes {
	scale := func(per10 int) int { return max(4, per10*seconds/10) }
	big := costmodel.PaperCNNParams
	switch name {
	case "train":
		return sizes{Rounds: scale(16), Traced: scale(6), Samples: 64, Image: 32, Batch: 32}
	case "agg_mem":
		return sizes{Rounds: scale(24), Traced: scale(10), Dim: big}
	case "agg_tcp":
		return sizes{Rounds: scale(6), Traced: scale(4), Dim: big}
	case "agg_compress":
		return sizes{Rounds: scale(8), Traced: scale(4), Dim: big / 2}
	case "xlayer":
		return sizes{Rounds: scale(30), Traced: scale(12), Dim: 64, Depth: 10}
	case "failover":
		return sizes{Rounds: scale(100) * 20, Traced: scale(40) * 20, Dim: 1024, Steps: 20, CrashAt: 5}
	}
	return sizes{}
}

func smokeSizes(name string) sizes {
	switch name {
	case "train":
		return sizes{Rounds: 2, Traced: 2, Samples: 8, Image: 8, Batch: 4}
	case "xlayer":
		return sizes{Rounds: 2, Traced: 2, Dim: 64, Depth: 4}
	case "failover":
		return sizes{Rounds: 2 * 8, Traced: 8, Dim: 64, Steps: 8, CrashAt: 2}
	}
	return sizes{Rounds: 2, Traced: 2, Dim: 4096}
}

const oracleTol = 1e-9

// ---- tracing wrappers around the repo's interfaces ----

type tracedDivider struct {
	inner secretshare.Divider
	tr    *tracer
	id    uint16
}

// divider returns nil (the repo's default) untraced, and the same default
// wrapped when a tracer is present.
func divider(tr *tracer) secretshare.Divider {
	if tr == nil {
		return nil
	}
	return tracedDivider{secretshare.ScalarDivider{}, tr, tr.id("secretshare", "divide")}
}

func (d tracedDivider) Name() string { return d.inner.Name() }

func (d tracedDivider) Divide(w []float64, n int, rng *rand.Rand) ([][]float64, error) {
	s := d.tr.begin()
	out, err := d.inner.Divide(w, n, rng)
	d.tr.end(d.id, s)
	return out, err
}

func (d tracedDivider) DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error) {
	s := d.tr.begin()
	out, blk, err := d.inner.DivideInto(w, n, rng, block, views)
	d.tr.end(d.id, s)
	return out, blk, err
}

type tracedAggregator struct {
	inner fl.Aggregator
	tr    *tracer
	id    uint16
}

func aggregator(tr *tracer) fl.Aggregator {
	if tr == nil {
		return nil
	}
	return tracedAggregator{fl.FedAvg{}, tr, tr.id("fl", "fedavg")}
}

func (a tracedAggregator) Name() string { return a.inner.Name() }

func (a tracedAggregator) Aggregate(models [][]float64, counts []float64) ([]float64, error) {
	s := a.tr.begin()
	out, err := a.inner.Aggregate(models, counts)
	a.tr.end(a.id, s)
	return out, err
}

// tracedNetwork times Send by message kind and Drain. A recovery request
// and its response stand in for a crashed owner's subtotal and are timed
// under that name.
type tracedNetwork struct {
	transport.Network
	tr    *tracer
	send  map[string]uint16
	drain uint16
}

var sendOps = map[string]string{
	kindShare: "send.share", kindSubtotal: "send.subtotal", kindRecovery: "send.subtotal",
	kindRecoveryReq: "send.subtotal", kindUpload: "send.upload", kindDownload: "send.download",
	kindBroadcast: "send.broadcast",
}

func network(inner transport.Network, tr *tracer) transport.Network {
	if tr == nil {
		return inner
	}
	n := tracedNetwork{Network: inner, tr: tr, send: map[string]uint16{}, drain: tr.id("transport", "drain")}
	for kind, op := range sendOps {
		n.send[kind] = tr.id("transport", op)
	}
	return n
}

func (n tracedNetwork) Send(m transport.Message) error {
	s := n.tr.begin()
	err := n.Network.Send(m)
	n.tr.end(n.send[m.Kind], s)
	return err
}

func (n tracedNetwork) Drain(peer int) ([]transport.Message, error) {
	s := n.tr.begin()
	out, err := n.Network.Drain(peer)
	n.tr.end(n.drain, s)
	return out, err
}

// ---- shared helpers ----

// randomModels draws n model vectors of dim weights in one backing block
// and returns them with their plain mean.
func randomModels(n, dim int, rng *rand.Rand) (models [][]float64, mean []float64) {
	block := make([]float64, n*dim)
	for i := range block {
		block[i] = rng.Float64()*2 - 1
	}
	models = make([][]float64, n)
	for i := range models {
		models[i] = block[i*dim : (i+1)*dim]
	}
	return models, weightedMean(models, nil)
}

// weightedMean is the oracle's plaintext reference: Σ c_i·w_i ÷ Σ c_i,
// uniform when counts is nil. It shares no code with the system under test.
func weightedMean(models [][]float64, counts []float64) []float64 {
	mean := make([]float64, len(models[0]))
	total := 0.0
	for i, m := range models {
		c := 1.0
		if counts != nil {
			c = counts[i]
		}
		total += c
		for j, v := range m {
			mean[j] += c * v
		}
	}
	for j := range mean {
		mean[j] /= total
	}
	return mean
}

// maxAbsDiff returns max_j |a_j − b_j|, or +Inf on a length mismatch.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for j := range a {
		if d := math.Abs(a[j] - b[j]); d > worst || d != d {
			worst = d
		}
	}
	return worst
}

func snapshot(c *transport.Counter) traffic {
	t := traffic{Bytes: map[string]int64{}, Msgs: map[string]int64{}}
	if c != nil {
		for _, k := range c.Kinds() {
			t.Bytes[k], t.Msgs[k] = c.Bytes(k), c.Messages(k)
		}
	}
	return t
}

// minus returns t − o per kind.
func (t traffic) minus(o traffic) traffic {
	d := traffic{Bytes: map[string]int64{}, Msgs: map[string]int64{}}
	for k, v := range t.Bytes {
		d.Bytes[k] = v - o.Bytes[k]
	}
	for k, v := range t.Msgs {
		d.Msgs[k] = v - o.Msgs[k]
	}
	return d
}

func (t traffic) add(o traffic) {
	for k, v := range o.Bytes {
		t.Bytes[k] += v
	}
	for k, v := range o.Msgs {
		t.Msgs[k] += v
	}
}

// twoLayerBytes is the closed form of one full-participation two-layer
// round: Eq. 5 SAC traffic at 8·dim per unit plus the FedAvg-layer legs at
// msgBytes each (8·dim uncompressed).
func twoLayerBytes(sizes []int, k, dim int, msgBytes int64) (int64, error) {
	units, err := costmodel.TwoLayerUnevenKNUnits(sizes, k)
	if err != nil {
		return 0, err
	}
	legs, err := costmodel.DistributionMessages(sizes)
	if err != nil {
		return 0, err
	}
	dist, err := costmodel.DistributionBytes(sizes, msgBytes)
	if err != nil {
		return 0, err
	}
	return (units-legs)*int64(8*dim) + dist, nil
}

// raftTraffic sums the consensus traffic offered on every simulated
// network of the cluster.
func raftTraffic(cl *cluster.System) (msgs, bytes int64) {
	for g := 0; g < cl.NumSubgroups(); g++ {
		m, b := cl.SubgroupNet(g).OfferedTraffic()
		msgs, bytes = msgs+m, bytes+b
	}
	if fed := cl.FedNet(); fed != nil {
		m, b := fed.OfferedTraffic()
		msgs, bytes = msgs+m, bytes+b
	}
	return msgs, bytes
}

// clusterLeaders maps the cluster's raft leaders to core's per-subgroup
// leader indices and the FedAvg-leading subgroup. ok is false while any
// leader is missing or a subgroup leader has not joined the FedAvg layer.
func clusterLeaders(cl *cluster.System) (leaders []int, fedSub int, ok bool) {
	fed := cl.FedAvgLeader()
	if fed == raft.None {
		return nil, 0, false
	}
	for g := 0; g < cl.NumSubgroups(); g++ {
		id := cl.SubgroupLeader(g)
		if id == raft.None || !cl.Peer(id).Joined() {
			return nil, 0, false
		}
		idx := -1
		for i, p := range cl.SubgroupPeers(g) {
			if p == id {
				idx = i
			}
		}
		if idx < 0 {
			return nil, 0, false
		}
		leaders = append(leaders, idx)
	}
	return leaders, cl.Peer(fed).Subgroup, true
}

func newCluster(m, n int, seed int64) (*cluster.System, error) {
	cl, err := cluster.New(cluster.Options{
		NumSubgroups: m, SubgroupSize: n,
		ElectionTickMin: 50, ElectionTickMax: 100,
		Latency: 15 * simnet.Millisecond, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Bootstrap(30 * simnet.Second); err != nil {
		return nil, err
	}
	cl.Sim.RunFor(500 * simnet.Millisecond) // let configuration commits settle
	return cl, nil
}

// roundInterval is the virtual time the cluster advances per round.
const roundInterval = 200 * simnet.Millisecond

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---- train ----

type trainLoad struct {
	base

	clients []*fl.Client
	test    *dataset.Dataset
	eval    *nn.Model
	cl      *cluster.System
	agg     *core.System
	sizes   []int

	global []float64
	models [][]float64
	counts []float64
	last   *core.RoundResult

	genMs, partMs, bootMs float64
	idTrain, idIO, idAgg  uint16
	idRunFor              uint16
	raftMsgs0, raftBytes0 int64
}

const trainPeers, trainSub, trainK = 9, 3, 2

func (w *trainLoad) construct(tr *tracer) error {
	w.tr = tr
	w.idTrain, w.idIO = tr.id("fl", "train"), tr.id("fl", "weights_io")
	w.idAgg, w.idRunFor = tr.id("core", "aggregate"), tr.id("cluster", "runfor")

	t0 := time.Now()
	spec := dataset.CIFAR10Like(trainPeers*w.sz.Samples, 256, w.seed)
	spec.Size = w.sz.Image
	// CIFAR10Like's 0.55 pixel noise leaves accuracy after 16 rounds anywhere
	// in 0.3–1.0 depending on the seed; at 0.15 the task all but saturates,
	// so final_acc is steady across seeds and still collapses if training
	// or aggregation breaks.
	spec.Noise = 0.15
	train, test, err := dataset.Generate(spec)
	if err != nil {
		return err
	}
	w.genMs = ms(time.Since(t0))
	t0 = time.Now()
	parts, err := dataset.Partition(train, trainPeers, dataset.IID, rand.New(rand.NewSource(w.seed+1)))
	if err != nil {
		return err
	}
	w.partMs = ms(time.Since(t0))
	w.test = test

	w.clients = make([]*fl.Client, trainPeers)
	for i := range w.clients {
		model, err := nn.TinyCNN(3, w.sz.Image, 10, rand.New(rand.NewSource(w.seed+100+int64(i))))
		if err != nil {
			return err
		}
		w.clients[i] = fl.NewClient(i, model, optim.NewAdam(1e-3), parts[i],
			fl.TrainConfig{Epochs: 1, BatchSize: w.sz.Batch}, rand.New(rand.NewSource(w.seed+200+int64(i))))
	}
	if w.eval, err = nn.TinyCNN(3, w.sz.Image, 10, rand.New(rand.NewSource(w.seed+300))); err != nil {
		return err
	}
	w.global = w.clients[0].Weights()
	w.models = make([][]float64, trainPeers)
	w.counts = make([]float64, trainPeers)

	t0 = time.Now()
	if w.cl, err = newCluster(trainPeers/trainSub, trainSub, w.seed); err != nil {
		return err
	}
	w.bootMs = ms(time.Since(t0))
	w.raftMsgs0, w.raftBytes0 = raftTraffic(w.cl)

	if w.sizes, err = core.SplitPeers(trainPeers, trainPeers/trainSub); err != nil {
		return err
	}
	w.agg, err = core.NewSystem(core.Config{
		Sizes: w.sizes, K: []int{trainK}, Divider: divider(tr), Aggregator: aggregator(tr),
	}, rand.New(rand.NewSource(w.seed+2)))
	return err
}

func (w *trainLoad) round(int) outcome {
	leaders, fedSub, ok := clusterLeaders(w.cl)
	if !ok {
		return outcome{Err: errors.New("train: cluster has no resolvable leaders")}
	}
	for i, c := range w.clients {
		s := w.tr.begin()
		err := c.SetWeights(w.global)
		w.tr.end(w.idIO, s)
		if err != nil {
			return outcome{Err: err}
		}
		s = w.tr.begin()
		_, err = c.TrainRound()
		w.tr.end(w.idTrain, s)
		if err != nil {
			return outcome{Err: err}
		}
		s = w.tr.begin()
		w.models[i] = c.Weights()
		w.tr.end(w.idIO, s)
		w.counts[i] = float64(c.SampleCount())
	}
	a := w.tr.open(w.idAgg)
	res, err := w.agg.AggregateRound(w.models, core.RoundSpec{SampleCounts: w.counts, Leaders: leaders, FedLeader: fedSub})
	w.tr.close(a)
	if err != nil {
		return outcome{Err: err}
	}
	s := w.tr.begin()
	w.cl.Sim.RunFor(roundInterval)
	w.tr.end(w.idRunFor, s)
	w.last, w.global = res, res.Global
	return outcome{Bytes: res.Bytes}
}

func (w *trainLoad) check(int) (int64, error) {
	want := weightedMean(w.models, w.counts)
	if d := maxAbsDiff(w.last.Global, want); d > oracleTol {
		return 0, fmt.Errorf("train: global off the plaintext weighted mean by %g", d)
	}
	bytes, err := twoLayerBytes(w.sizes, trainK, len(want), int64(8*len(want)))
	if err != nil {
		return 0, err
	}
	if w.last.Bytes != bytes {
		return bytes, fmt.Errorf("train: %d bytes, closed form %d", w.last.Bytes, bytes)
	}
	return bytes, nil
}

func (w *trainLoad) traffic() traffic {
	t := snapshot(w.agg.Counter())
	m, b := raftTraffic(w.cl)
	t.Msgs[kindRaft], t.Bytes[kindRaft] = m-w.raftMsgs0, b-w.raftBytes0
	return t
}

func (w *trainLoad) facts() map[string]float64 {
	f := map[string]float64{
		"dataset.generate_ms": w.genMs, "dataset.partition_ms": w.partMs,
		"cluster.bootstrap_ms": w.bootMs, "virtual_ms_per_round": roundInterval.Ms(),
		"peers": trainPeers, "sacs_per_round": float64(len(w.sizes)), "dim": float64(len(w.global)),
		"samples_per_round": float64(trainPeers * w.sz.Samples),
	}
	if w.last != nil {
		if err := w.eval.SetWeightVector(w.global); err == nil {
			if acc, _, err := fl.EvaluateModel(w.eval, w.test, false); err == nil {
				f["final_acc"] = acc
			}
		}
	}
	return f
}

// probes replays one training step of client 0 to split fl.train (an
// opaque parent) into forward, backward and optimizer time, and times the
// model's largest matmul (conv2 as im2col: [B·(H−2)², 36]·[4, 36]ᵀ).
func (w *trainLoad) probes() (map[string]float64, error) {
	c := w.clients[0]
	saved := c.Weights()
	x, labels, err := c.Data.Batch(0, min(w.sz.Batch, c.Data.Len()))
	if err != nil {
		return nil, err
	}
	const reps = 5
	var fwd, bwd, step time.Duration
	for i := 0; i < reps; i++ {
		c.Model.ZeroGrad()
		t0 := time.Now()
		if _, err := c.Model.Loss(x, labels); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := c.Model.Backward(); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := c.Opt.Step(c.Model.Params()); err != nil {
			return nil, err
		}
		fwd, bwd, step = fwd+t1.Sub(t0), bwd+t2.Sub(t1), step+time.Since(t2)
	}
	if err := c.SetWeights(saved); err != nil {
		return nil, err
	}
	stepsPerRound := float64(trainPeers * ((w.sz.Samples + w.sz.Batch - 1) / w.sz.Batch))
	perStep := func(d time.Duration) float64 { return ms(d) / reps * stepsPerRound }

	rows := w.sz.Batch * (w.sz.Image - 2) * (w.sz.Image - 2)
	a, b, dst := tensor.New(rows, 36), tensor.New(4, 36), tensor.New(rows, 4)
	for i, d := 0, a.Data(); i < len(d); i++ {
		d[i] = float64(i%7) - 3
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := tensor.MatMulTransBInto(dst, a, b); err != nil {
			return nil, err
		}
	}
	flops := 2 * float64(rows) * 36 * 4 * reps
	return map[string]float64{
		"nn.forward_ms": perStep(fwd), "nn.backward_ms": perStep(bwd), "optim.step_ms": perStep(step),
		"tensor.matmul_gflops": flops / float64(time.Since(t0)),
	}, nil
}

// ---- agg_mem and agg_compress ----

// fifteen is the input the three agg_* workloads share: 15 peers as 5×3
// with fixed random models and their plaintext mean.
type fifteen struct {
	base
	sizes  []int
	models [][]float64
	mean   []float64
}

func (w *fifteen) inputs(seed int64, sz sizes) error {
	w.seed, w.sz = seed, sz
	var err error
	if w.sizes, err = core.SplitPeers(aggPeers, aggSubgroups); err != nil {
		return err
	}
	w.models, w.mean = randomModels(aggPeers, sz.Dim, rand.New(rand.NewSource(seed)))
	return nil
}

type aggLoad struct {
	fifteen
	crash bool            // agg_mem: drop one follower AfterShares every round
	comp  compress.Config // agg_compress

	agg   *core.System
	idAgg uint16

	spec       core.RoundSpec
	last       *core.RoundResult
	before     traffic
	uploadErr  float64 // Σ_g weight_g · upload bound, from the first oracle replay
	haveBounds bool
}

const aggPeers, aggSubgroups, aggK = 15, 5, 2

func (w *aggLoad) construct(tr *tracer) error {
	w.tr, w.idAgg = tr, tr.id("core", "aggregate")
	var err error
	w.agg, err = core.NewSystem(core.Config{
		Sizes: w.sizes, K: []int{aggK}, Divider: divider(tr), Aggregator: aggregator(tr), Compression: w.comp,
	}, rand.New(rand.NewSource(w.seed+1)))
	return err
}

func (w *aggLoad) prepare(r int) error {
	w.spec = core.RoundSpec{}
	if w.crash {
		// With leader 0 and k = n−1 the leader lacks exactly the last
		// peer's subtotal, so crashing that peer after it shared forces
		// the replica-recovery path (Fig. 3) on every round.
		m := len(w.sizes)
		g := (r%m + m) % m // warm-up rounds are negative
		w.spec.Crash = map[int]sac.CrashPlan{g: {w.sizes[g] - 1: sac.AfterShares}}
		w.before = snapshot(w.agg.Counter())
	}
	return nil
}

func (w *aggLoad) round(int) outcome {
	a := w.tr.open(w.idAgg)
	res, err := w.agg.AggregateRound(w.models, w.spec)
	w.tr.close(a)
	if err != nil {
		return outcome{Err: err}
	}
	w.last = res
	return outcome{Bytes: res.Bytes}
}

func (w *aggLoad) msgBytes() int64 {
	if w.comp.Enabled() {
		return w.comp.MessageBytes(w.sz.Dim)
	}
	return int64(8 * w.sz.Dim)
}

func (w *aggLoad) closedForm() (int64, error) {
	return twoLayerBytes(w.sizes, aggK, w.sz.Dim, w.msgBytes())
}

func (w *aggLoad) check(int) (int64, error) {
	res := w.last
	if len(res.Participated) != len(w.sizes) {
		return 0, fmt.Errorf("agg: %d of %d subgroups participated", len(res.Participated), len(w.sizes))
	}
	want, err := w.closedForm()
	if err != nil {
		return 0, err
	}
	tol := oracleTol
	switch {
	case w.crash:
		// The dropped peer shared before it crashed, so all 15 models must
		// still be in the mean; its subtotal arrives through one recovery
		// request (8 metadata bytes) and one recovery response (|w|).
		now := snapshot(w.agg.Counter())
		reqs := now.Msgs[kindRecoveryReq] - w.before.Msgs[kindRecoveryReq]
		if got := now.Msgs[kindRecovery] - w.before.Msgs[kindRecovery]; got != 1 || reqs != 1 {
			return want, fmt.Errorf("agg_mem: %d recoveries, %d requests, want 1 and 1", got, reqs)
		}
		want += now.Bytes[kindRecoveryReq] - w.before.Bytes[kindRecoveryReq]
	case w.comp.Enabled():
		if res.GlobalBound == nil {
			return want, errors.New("agg_compress: no GlobalBound")
		}
		if !w.haveBounds {
			// Every round compresses the same four uploads (up to share
			// rounding), so their bounds are replayed once.
			for g, avg := range res.SubgroupAvgs[1:] {
				d, err := w.comp.Compress(avg)
				if err != nil {
					return want, err
				}
				w.uploadErr += d.Bound.MaxCoordErr * float64(w.sizes[g+1]) / aggPeers
			}
			w.haveBounds = true
		}
		tol += res.GlobalBound.MaxCoordErr + w.uploadErr
	}
	if d := maxAbsDiff(res.Global, w.mean); d > tol {
		return want, fmt.Errorf("agg: global off the plaintext mean by %g (tolerance %g)", d, tol)
	}
	if res.Bytes != want {
		return want, fmt.Errorf("agg: %d bytes, closed form %d", res.Bytes, want)
	}
	return want, nil
}

func (w *aggLoad) traffic() traffic { return snapshot(w.agg.Counter()) }

func (w *aggLoad) facts() map[string]float64 {
	return map[string]float64{"peers": aggPeers, "sacs_per_round": aggSubgroups, "dim": float64(w.sz.Dim)}
}

// probes replays the round's five compressions (four uploads, then the
// global model rebuilt from the decoded uploads exactly as core does) on
// the last round's inputs; core runs them inside AggregateRound where no
// seam exposes them.
func (w *aggLoad) probes() (map[string]float64, error) {
	if !w.comp.Enabled() || w.last == nil {
		return nil, nil
	}
	avgs := w.last.SubgroupAvgs
	fed, counts := [][]float64{avgs[0]}, []float64{float64(w.sizes[0])}
	var spent time.Duration
	var encoded int64
	worst := 0.0
	squeeze := func(v []float64) ([]float64, error) {
		t0 := time.Now()
		d, err := w.comp.Compress(v)
		if err != nil {
			return nil, err
		}
		out := d.Dense(nil)
		spent += time.Since(t0)
		encoded += d.EncodedBytes()
		worst = math.Max(worst, d.Bound.MeasuredMaxErr)
		return out, nil
	}
	for g := 1; g < len(avgs); g++ {
		dec, err := squeeze(avgs[g])
		if err != nil {
			return nil, err
		}
		fed, counts = append(fed, dec), append(counts, float64(w.sizes[g]))
	}
	global, err := fl.FedAvg{}.Aggregate(fed, counts)
	if err != nil {
		return nil, err
	}
	if _, err := squeeze(global); err != nil {
		return nil, err
	}
	calls := float64(len(avgs))
	raw := calls * float64(8*w.sz.Dim)
	return map[string]float64{
		"compress.compress_ms": ms(spent), "compress.calls_per_round": calls,
		"compress.mb_s":  raw / 1e6 / spent.Seconds(),
		"compress.ratio": float64(encoded) / raw, "compress.max_coord_err": worst,
	}, nil
}

// ---- agg_tcp ----

// tcpLoad composes Alg. 3 from the repo's public pieces over loopback
// sockets: one TCPMesh per subgroup for sac.Run and the broadcast, one for
// the FedAvg layer's uploads and downloads.
type tcpLoad struct {
	fifteen

	counter *transport.Counter
	meshes  []*transport.TCPMesh
	subs    []transport.Network
	upper   transport.Network
	div     secretshare.Divider
	rng     *rand.Rand
	idSAC   uint16
	idFed   uint16

	before traffic
	global []float64
	copies [][]float64 // every peer's received copy of the global model
	bytes  int64
}

func (w *tcpLoad) construct(tr *tracer) error {
	if err := w.close(); err != nil {
		return err
	}
	w.tr, w.idSAC, w.idFed = tr, tr.id("sac", "run"), tr.id("fl", "fedavg")
	w.counter = transport.NewCounter()
	w.div, w.rng = divider(tr), rand.New(rand.NewSource(w.seed+1))
	w.subs = nil
	for _, n := range append(append([]int(nil), w.sizes...), len(w.sizes)) {
		m, err := transport.NewTCPMesh(n, w.counter)
		if err != nil {
			return err
		}
		w.meshes = append(w.meshes, m)
		w.subs = append(w.subs, network(m, tr))
	}
	w.upper, w.subs = w.subs[len(w.sizes)], w.subs[:len(w.sizes)]
	return nil
}

// recv drains peer's inbox on net and returns the single payload in it.
func recv(net transport.Network, peer int) ([]float64, error) {
	msgs, err := net.Drain(peer)
	if err != nil {
		return nil, err
	}
	if len(msgs) != 1 {
		return nil, fmt.Errorf("agg_tcp: peer %d drained %d messages, want 1", peer, len(msgs))
	}
	return msgs[0].Payload, nil
}

func (w *tcpLoad) round(int) outcome {
	before := w.counter.TotalBytes()
	m := len(w.sizes)
	fed, counts := make([][]float64, m), make([]float64, m)
	off := 0
	for g, n := range w.sizes {
		run := w.tr.open(w.idSAC)
		res, err := sac.Run(w.subs[g], sac.Config{N: n, K: aggK, Mode: sac.ModeLeader, Divider: w.div, Rng: w.rng}, w.models[off:off+n], nil)
		w.tr.close(run)
		if err != nil {
			return outcome{Err: err}
		}
		fed[g], counts[g] = res.Avg, float64(len(res.Contributors))
		off += n
	}
	// FedAvg layer: leaders 1..m−1 upload to leader 0, which aggregates
	// what it decoded and sends the global model back down.
	for g := 1; g < m; g++ {
		if err := w.upper.Send(transport.Message{From: g, To: 0, Kind: kindUpload, Payload: fed[g]}); err != nil {
			return outcome{Err: err}
		}
	}
	ups, err := w.upper.Drain(0)
	if err != nil || len(ups) != m-1 {
		return outcome{Err: fmt.Errorf("agg_tcp: %d uploads arrived: %v", len(ups), err)}
	}
	for _, u := range ups {
		fed[u.From] = u.Payload
	}
	s := w.tr.begin()
	global, err := fl.FedAvg{}.Aggregate(fed, counts)
	w.tr.end(w.idFed, s)
	if err != nil {
		return outcome{Err: err}
	}
	w.copies = w.copies[:0]
	for g, n := range w.sizes {
		mine := global
		if g > 0 {
			if err := w.upper.Send(transport.Message{From: 0, To: g, Kind: kindDownload, Payload: global}); err != nil {
				return outcome{Err: err}
			}
			if mine, err = recv(w.upper, g); err != nil {
				return outcome{Err: err}
			}
		}
		w.copies = append(w.copies, mine)
		for i := 1; i < n; i++ {
			if err := w.subs[g].Send(transport.Message{From: 0, To: i, Kind: kindBroadcast, Payload: mine}); err != nil {
				return outcome{Err: err}
			}
			got, err := recv(w.subs[g], i)
			if err != nil {
				return outcome{Err: err}
			}
			w.copies = append(w.copies, got)
		}
	}
	w.global, w.bytes = global, w.counter.TotalBytes()-before
	return outcome{Bytes: w.bytes}
}

func (w *tcpLoad) closedForm() (int64, error) {
	return twoLayerBytes(w.sizes, aggK, w.sz.Dim, int64(8*w.sz.Dim))
}

func (w *tcpLoad) check(int) (int64, error) {
	want, err := w.closedForm()
	if err != nil {
		return 0, err
	}
	if d := maxAbsDiff(w.global, w.mean); d > oracleTol {
		return want, fmt.Errorf("agg_tcp: global off the plaintext mean by %g", d)
	}
	if len(w.copies) != aggPeers {
		return want, fmt.Errorf("agg_tcp: %d peers hold the global model, want %d", len(w.copies), aggPeers)
	}
	for i, c := range w.copies {
		if maxAbsDiff(c, w.global) != 0 {
			return want, fmt.Errorf("agg_tcp: peer %d's copy differs from the global model", i)
		}
	}
	if w.bytes != want {
		return want, fmt.Errorf("agg_tcp: %d bytes, closed form %d", w.bytes, want)
	}
	return want, nil
}

func (w *tcpLoad) traffic() traffic { return snapshot(w.counter) }

func (w *tcpLoad) facts() map[string]float64 {
	f := map[string]float64{"peers": aggPeers, "sacs_per_round": aggSubgroups, "dim": float64(w.sz.Dim)}
	// costmodel.RoundTime's phases at unit bandwidth, with phases 1–2
	// multiplied by m: one process on loopback runs the subgroups in turn.
	_, phases, err := costmodel.RoundTime(aggSubgroups, aggPeers/aggSubgroups, aggK, int64(8*w.sz.Dim), costmodel.LinkModel{BandwidthBps: 1e6})
	if err == nil {
		for i, p := range phases {
			if i < 2 {
				p *= aggSubgroups
			}
			f[fmt.Sprintf("model_mb.p%d", i+1)] = p.Seconds()
		}
	}
	return f
}

// probes times the wire codec at this workload's payload size; TCPMesh
// encodes and decodes one frame per message inside Send.
func (w *tcpLoad) probes() (map[string]float64, error) {
	const reps = 3
	msg := wire.MeshMessage{From: 1, To: 2, Kind: kindShare, ShareIdx: 1, Payload: w.models[0]}
	var buf, scratch []byte
	var enc, dec time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		buf = wire.AppendMeshFrame(buf[:0], msg)
		enc += time.Since(t0)
		t0 = time.Now()
		got, next, err := wire.ReadMeshFrame(bytes.NewReader(buf), scratch)
		dec += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if scratch = next; len(got.Payload) != len(msg.Payload) {
			return nil, errors.New("agg_tcp: wire probe round-trip lost payload")
		}
	}
	mb := float64(len(buf)) / 1e6
	return map[string]float64{
		"wire.encode_frame_ms": ms(enc) / reps, "wire.decode_frame_ms": ms(dec) / reps,
		"wire.encode_mb_s": mb * reps / enc.Seconds(), "wire.decode_mb_s": mb * reps / dec.Seconds(),
	}, nil
}

func (w *tcpLoad) close() error {
	var first error
	for _, m := range w.meshes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.meshes = nil
	return first
}

// ---- xlayer ----

type xlayerLoad struct {
	base
	models [][]float64
	mean   []float64

	topo    *core.MultiLayerTopology
	scratch *core.MultiLayerScratch
	counter *transport.Counter
	div     secretshare.Divider
	rng     *rand.Rand
	idAgg   uint16
	last    *core.MultiLayerResult
}

const xlayerDegree = 4

func (w *xlayerLoad) inputs(seed int64, sz sizes) error {
	w.seed, w.sz = seed, sz
	n, err := costmodel.MultiLayerPeers(xlayerDegree, sz.Depth)
	if err != nil {
		return err
	}
	w.models, w.mean = randomModels(int(n), sz.Dim, rand.New(rand.NewSource(seed)))
	return nil
}

func (w *xlayerLoad) construct(tr *tracer) error {
	w.tr, w.idAgg = tr, tr.id("core", "aggregate")
	var err error
	if w.topo, err = core.BuildMultiLayerTopology(xlayerDegree, w.sz.Depth); err != nil {
		return err
	}
	w.scratch, w.counter = &core.MultiLayerScratch{}, transport.NewCounter()
	w.div, w.rng = divider(tr), rand.New(rand.NewSource(w.seed+1))
	return nil
}

func (w *xlayerLoad) round(int) outcome {
	a := w.tr.open(w.idAgg)
	res, err := core.AggregateMultiLayerOpts(w.topo, w.models, w.div, w.rng, w.counter, core.MultiLayerOptions{Scratch: w.scratch})
	w.tr.close(a)
	if err != nil {
		return outcome{Err: err}
	}
	w.last = res
	return outcome{Bytes: res.Bytes}
}

func (w *xlayerLoad) closedForm() (int64, error) {
	units, err := costmodel.MultiLayerUnits(xlayerDegree, w.sz.Depth)
	return units * int64(8*w.sz.Dim), err
}

func (w *xlayerLoad) check(int) (int64, error) {
	want, err := w.closedForm()
	if err != nil {
		return 0, err
	}
	if d := maxAbsDiff(w.last.Global, w.mean); d > oracleTol {
		return want, fmt.Errorf("xlayer: global off the plaintext mean by %g", d)
	}
	if w.last.Bytes != want {
		return want, fmt.Errorf("xlayer: %d bytes, Eq. 10 gives %d", w.last.Bytes, want)
	}
	return want, nil
}

func (w *xlayerLoad) traffic() traffic { return snapshot(w.counter) }

func (w *xlayerLoad) facts() map[string]float64 {
	f := map[string]float64{"peers": float64(w.topo.N), "dim": float64(w.sz.Dim)}
	if w.last != nil {
		f["sacs_per_round"] = float64(w.last.Aggregations)
	}
	return f
}

// ---- failover ----

// failoverLoad runs episodes. Each builds a fresh 5×5 cluster, holds a
// round every 200 virtual ms (open loop on the virtual clock), crashes the
// FedAvg leader at step CrashAt and carries the victim into later rounds
// as a BeforeShares crash. A round due while leadership is unresolved is
// missed. Recovery is the Fig. 12 quantity, read off the cluster's own
// event timeline.
type failoverLoad struct {
	base
	models [][]float64
	sum    []float64
	sizes  []int

	cl        *cluster.System
	agg       *core.System
	victim    uint64
	victimSub int
	victimIdx int
	crashAt   simnet.Time

	idAgg, idRunFor uint16
	last            *core.RoundResult
	before          traffic
	done            traffic // traffic of finished episodes
	raft0           [2]int64

	bootMs                           float64
	builds, episodes, missed, elects int
	recovery                         []float64
}

const foSubgroups, foSize, foK = 5, 5, 3

func (w *failoverLoad) inputs(seed int64, sz sizes) error {
	w.seed, w.sz = seed, sz
	w.sizes = make([]int, foSubgroups)
	for g := range w.sizes {
		w.sizes[g] = foSize
	}
	var mean []float64
	w.models, mean = randomModels(foSubgroups*foSize, sz.Dim, rand.New(rand.NewSource(seed)))
	w.sum = mean
	for j := range w.sum {
		w.sum[j] *= foSubgroups * foSize
	}
	w.done = traffic{Bytes: map[string]int64{}, Msgs: map[string]int64{}}
	return nil
}

func (w *failoverLoad) construct(tr *tracer) error {
	w.tr, w.idAgg, w.idRunFor = tr, tr.id("core", "aggregate"), tr.id("cluster", "runfor")
	return w.episode(-1)
}

// episode retires the running cluster and builds episode e (−1: the
// warm-up's). Episode seeds of different base seeds never coincide.
func (w *failoverLoad) episode(e int) error {
	w.retire()
	seed := w.seed*1_000_003 + int64(e)
	t0 := time.Now()
	var err error
	if w.cl, err = newCluster(foSubgroups, foSize, seed); err != nil {
		return err
	}
	w.bootMs += ms(time.Since(t0))
	w.builds++
	w.raft0[0], w.raft0[1] = raftTraffic(w.cl)
	w.victim, w.last = raft.None, nil
	w.agg, err = core.NewSystem(core.Config{
		Sizes: w.sizes, K: []int{foK}, Divider: divider(w.tr), Aggregator: aggregator(w.tr),
	}, rand.New(rand.NewSource(seed)))
	return err
}

// retire folds the finished episode's counters and recovery into the totals.
func (w *failoverLoad) retire() {
	if w.cl == nil {
		return
	}
	w.done.add(w.current())
	if w.victim != raft.None {
		if vms, ok := w.recovered(); ok {
			w.recovery = append(w.recovery, vms)
		}
		for _, e := range w.cl.Events() {
			if e.At >= w.crashAt && (e.Kind == cluster.EvSubgroupLeader || e.Kind == cluster.EvFedAvgLeader) {
				w.elects++
			}
		}
		w.episodes++
	}
	w.cl = nil
}

// recovered returns the Fig. 12 quantity of the running episode: virtual
// ms from the crash until a new FedAvg leader is elected and the victim
// subgroup's new leader has joined the FedAvg layer.
func (w *failoverLoad) recovered() (vms float64, ok bool) {
	fed, ok1 := w.cl.FirstEventAfter(w.crashAt, cluster.EvFedAvgLeader, -1)
	joined, ok2 := w.cl.FirstEventAfter(w.crashAt, cluster.EvJoinedFedAvg, w.victimSub)
	return simnet.Duration(max(fed.At, joined.At) - w.crashAt).Ms(), ok1 && ok2
}

func (w *failoverLoad) current() traffic {
	t := snapshot(w.agg.Counter())
	m, b := raftTraffic(w.cl)
	t.Msgs[kindRaft], t.Bytes[kindRaft] = m-w.raft0[0], b-w.raft0[1]
	return t
}

func (w *failoverLoad) prepare(r int) error {
	step := -1 // warm-up rounds run on the episode construct built
	if r >= 0 {
		step = r % w.sz.Steps
	}
	if step == 0 {
		if err := w.episode(r / w.sz.Steps); err != nil {
			return err
		}
	}
	w.before = snapshot(w.agg.Counter())
	if step == w.sz.CrashAt {
		w.victim = w.cl.FedAvgLeader()
		if w.victim == raft.None {
			return errors.New("failover: no FedAvg leader to crash")
		}
		w.victimSub = w.cl.Peer(w.victim).Subgroup
		for i, p := range w.cl.SubgroupPeers(w.victimSub) {
			if p == w.victim {
				w.victimIdx = i
			}
		}
		w.crashAt = w.cl.Sim.Now()
		return w.cl.CrashPeer(w.victim)
	}
	return nil
}

func (w *failoverLoad) round(int) outcome {
	var out outcome
	w.last = nil
	leaders, fedSub, ok := clusterLeaders(w.cl)
	if ok {
		spec := core.RoundSpec{Leaders: leaders, FedLeader: fedSub}
		if w.victim != raft.None {
			spec.Crash = map[int]sac.CrashPlan{w.victimSub: {w.victimIdx: sac.BeforeShares}}
		}
		a := w.tr.open(w.idAgg)
		res, err := w.agg.AggregateRound(w.models, spec)
		w.tr.close(a)
		if err != nil {
			out.Err = err
		} else {
			w.last, out.Bytes = res, res.Bytes
		}
	} else {
		out.Missed = true
		w.missed++
	}
	s := w.tr.begin()
	w.cl.Sim.RunFor(roundInterval)
	w.tr.end(w.idRunFor, s)
	return out
}

func (w *failoverLoad) check(r int) (int64, error) {
	if r >= 0 && r%w.sz.Steps == w.sz.Steps-1 {
		// The episode must have recovered by its last round.
		if _, ok := w.recovered(); !ok {
			return 0, errors.New("failover: episode ended without recovering from the leader crash")
		}
	}
	if w.last == nil {
		return 0, nil // missed round: nothing ran
	}
	n := float64(len(w.models))
	want := make([]float64, len(w.sum))
	copy(want, w.sum)
	units, err := costmodel.TwoLayerUnevenKNUnits(w.sizes, foK)
	if err != nil {
		return 0, err
	}
	if w.victim != raft.None {
		// The victim never shares: its model leaves the mean and its
		// (n−1)(n−k+1) share messages leave the traffic.
		for j, v := range w.models[w.victimSub*foSize+w.victimIdx] {
			want[j] -= v
		}
		n--
		units -= (foSize - 1) * (foSize - foK + 1)
	}
	for j := range want {
		want[j] /= n
	}
	now := snapshot(w.agg.Counter())
	bytes := units*int64(8*w.sz.Dim) + now.Bytes[kindRecoveryReq] - w.before.Bytes[kindRecoveryReq]
	if d := maxAbsDiff(w.last.Global, want); d > oracleTol {
		return bytes, fmt.Errorf("failover: global off the plaintext mean of the %v live peers by %g", n, d)
	}
	if w.last.Bytes != bytes {
		return bytes, fmt.Errorf("failover: %d bytes, closed form %d", w.last.Bytes, bytes)
	}
	return bytes, nil
}

func (w *failoverLoad) traffic() traffic {
	t := traffic{Bytes: map[string]int64{}, Msgs: map[string]int64{}}
	t.add(w.done)
	if w.cl != nil {
		t.add(w.current())
	}
	return t
}

func (w *failoverLoad) facts() map[string]float64 {
	w.retire()
	f := map[string]float64{
		"peers": foSubgroups * foSize, "sacs_per_round": foSubgroups, "dim": float64(w.sz.Dim),
		"cluster.bootstrap_ms": w.bootMs / float64(w.builds), "virtual_ms_per_round": roundInterval.Ms(),
		"episodes": float64(w.episodes), "recovered_episodes": float64(len(w.recovery)),
	}
	if w.episodes > 0 {
		f["cluster.missed_rounds_per_crash"] = float64(w.missed) / float64(w.episodes)
		f["raft.elections_per_crash"] = float64(w.elects) / float64(w.episodes)
	}
	if len(w.recovery) > 0 {
		f["recovery_vms_mean"] = mean(w.recovery)
		f["cluster.recovery_vms_p90"] = quantile(w.recovery, 0.9)
	}
	return f
}
