package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one declared metric. BENCHMARK.json repeats these names and
// units and adds direction and bound; bench_test.go keeps the two in step.
type metric struct{ Name, Unit string }

// notApplicable is printed for an end-to-end metric on a workload it does
// not apply to (final_acc off train, recovery_vms_mean off failover): the
// contract wants every metric on every row and none of them 0.
const notApplicable = 1.0

var endToEnd = []metric{
	{"setup_s", "s"},
	{"round_cpu_ms_p50", "ms"},
	{"wire_bytes_per_round", "B"},
	{"alloc_mb_per_round", "MB"},
	{"round_success_ratio", "ratio"},
	{"final_acc", "ratio"},
	{"recovery_vms_mean", "vms"},
}

var perLayer = []metric{
	{"fl.train_ms", "ms"}, {"fl.train_samples_per_s", "1/s"}, {"fl.weights_io_ms", "ms"}, {"fl.fedavg_ms", "ms"},
	{"nn.forward_ms", "ms"}, {"nn.backward_ms", "ms"}, {"optim.step_ms", "ms"}, {"tensor.matmul_gflops", "gflop/s"},
	{"dataset.generate_ms", "ms"}, {"dataset.partition_ms", "ms"},
	{"secretshare.divide_ms", "ms"}, {"secretshare.divide_calls", "count"}, {"secretshare.divide_mb_s", "MB/s"},
	{"sac.run_ms", "ms"}, {"sac.self_ms", "ms"}, {"sac.runs_per_round", "count"}, {"sac.recovered_per_round", "count"},
	{"sac.msgs_per_round", "count"}, {"sac.msgs_per_round.share", "count"}, {"sac.msgs_per_round.subtotal", "count"},
	{"compress.compress_ms", "ms"}, {"compress.calls_per_round", "count"}, {"compress.mb_s", "MB/s"},
	{"compress.ratio", "ratio"}, {"compress.max_coord_err", "abs"},
	{"wire.encode_ms", "ms"}, {"wire.decode_ms", "ms"}, {"wire.encode_mb_s", "MB/s"}, {"wire.decode_mb_s", "MB/s"},
	{"wire.frames_per_round", "count"},
	{"transport.send_ms", "ms"}, {"transport.send_ms.share", "ms"}, {"transport.send_ms.subtotal", "ms"},
	{"transport.send_ms.upload", "ms"}, {"transport.send_ms.download", "ms"}, {"transport.send_ms.broadcast", "ms"},
	{"transport.drain_ms", "ms"}, {"transport.socket_ms", "ms"}, {"transport.tcp_mb_s", "MB/s"},
	{"transport.msgs_per_round", "count"}, {"transport.bytes_per_round", "B"},
	{"core.aggregate_ms", "ms"}, {"core.self_ms", "ms"}, {"core.subgroup_sacs_per_round", "count"}, {"core.ns_per_peer", "ns"},
	{"cluster.runfor_ms", "ms"}, {"cluster.bootstrap_ms", "ms"}, {"cluster.sim_speedup", "ratio"},
	{"cluster.recovery_vms_p90", "vms"}, {"cluster.missed_rounds_per_crash", "count"},
	{"raft.msgs_per_round", "count"}, {"raft.bytes_per_round", "B"}, {"raft.elections_per_crash", "count"},
	{"costmodel.bytes_ratio", "ratio"}, {"costmodel.roundtime_ratio", "ratio"},
	{"costmodel.roundtime_ratio.p1", "ratio"}, {"costmodel.roundtime_ratio.p2", "ratio"}, {"costmodel.roundtime_ratio.p3", "ratio"},
	{"costmodel.roundtime_ratio.p4", "ratio"}, {"costmodel.roundtime_ratio.p5", "ratio"},
	{"round.p50_ms", "ms"}, {"round.p90_ms", "ms"}, {"round.mean_ms", "ms"}, {"round.samples", "count"},
	{"round.cpu_p50_ms", "ms"}, {"round.ref_speed", "ratio"}, {"round.traced_ms", "ms"},
	{"round.unattributed_ms", "ms"}, {"round.trace_overhead_ratio", "ratio"}, {"round.peak_heap_mb", "MB"},
	{"round.gc_pause_ms", "ms"},
}

// ledgerRows are the per-layer metrics whose sum, with
// round.unattributed_ms, is the traced round's wall time (round.traced_ms).
var ledgerRows = []string{
	"fl.train_ms", "fl.weights_io_ms", "fl.fedavg_ms", "secretshare.divide_ms", "sac.self_ms",
	"compress.compress_ms", "transport.send_ms", "transport.drain_ms", "core.self_ms", "cluster.runfor_ms",
}

// maxUnattributed is the share of the traced round the ledger may leave
// unexplained before the run fails.
const maxUnattributed = 0.10

// result is one run of one workload: untraced (end-to-end metrics) or
// traced (per-layer metrics).
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Missed    int                `json:"missed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`

	spans *tracer
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

func (r *result) fail(err error) {
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// segment accumulates the measurements of a run of consecutive rounds.
type segment struct {
	ms, cpuMs         []float64 // wall and process CPU time of each round that did not error
	completed         int       // rounds that ran to a checked result
	bytes, wantBytes  int64
	alloc, gcPauseNs  uint64
	peakHeap          uint64
	prepare           time.Duration // CPU time
	attempted, failed int
	missed            int

	ref   *speedometer // sampled before every block-th timed round
	block int
}

const (
	// Set-up repeats three to five times, stopping early once the passes
	// have used setupBudget of CPU time: the cheap set-ups, whose passes
	// vary the most, get five and a run stays inside the driver's time.
	minSetups, maxSetups = 3, 5
	setupBudget          = 6 * time.Second
	warmupRounds         = 2
)

// runWorkload is the harness: one driver goroutine, closed loop (round r+1
// starts when r returns), GOMAXPROCS at the host default. An untraced run
// reports the end-to-end metrics, its times as process CPU time at the
// reference kernel's nominal speed (see clock.go). A traced run builds the
// system with the tracing wrappers in place, measures sz.Traced rounds with
// the tracer switched off and sz.Traced with it on, and reports the
// per-layer ledger; the difference between the two is the tracing overhead.
func runWorkload(name string, seed int64, sz sizes, traced bool) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.inputs(seed, sz); err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", name, err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &result{Workload: name, Seed: seed, Traced: traced, spans: tr}

	// Set-up is construction plus the warm-up rounds that finish lazy
	// initialisation. It runs several times and the median is reported:
	// the first pass also pays for the process's first touch of its memory,
	// which on a VM varies by a factor of two.
	ref := &speedometer{}
	block := max(1, sz.Steps) // one round, or one whole episode where the workload has episodes
	var passes []float64
	var warm segment
	for spent := time.Duration(0); len(passes) < minSetups || (len(passes) < maxSetups && spent < setupBudget); {
		ref.sample()
		c0 := processCPU()
		if err := w.construct(tr); err != nil {
			return nil, fmt.Errorf("%s: construct: %w", name, err)
		}
		for r := -warmupRounds; r < 0; r++ {
			measure(w, nil, r, &warm, res)
		}
		pass := processCPU() - c0
		passes, spent = append(passes, pass.Seconds()), spent+pass
	}
	if warm.failed > 0 {
		res.fail(fmt.Errorf("%s: %d warm-up rounds failed", name, warm.failed))
	}
	runtime.GC()

	if !traced {
		seg := segment{ref: ref, block: block}
		for r := 0; r < sz.Rounds; r++ {
			measure(w, nil, r, &seg, res)
		}
		res.Attempted, res.Failed, res.Missed = seg.attempted, seg.failed, seg.missed
		if seg.completed == 0 {
			return res, fmt.Errorf("%s: no round completed: %v", name, res.Errors)
		}
		facts := w.facts()
		res.Metrics = map[string]float64{
			"setup_s":              (quantile(passes, 0.5) + seg.prepare.Seconds()) * ref.factor(),
			"round_cpu_ms_p50":     quantile(seg.cpuMs, 0.5) * ref.factor(),
			"wire_bytes_per_round": float64(seg.bytes) / float64(seg.completed),
			"alloc_mb_per_round":   float64(seg.alloc) / 1e6 / float64(seg.attempted),
			"round_success_ratio":  float64(seg.completed) / float64(seg.attempted),
			"final_acc":            orNA(facts, "final_acc"),
			"recovery_vms_mean":    orNA(facts, "recovery_vms_mean"),
			// Ungated, for the full set's table.
			"round.p50_ms": quantile(seg.ms, 0.5), "round.ref_speed": ref.speed(),
		}
		return res, nil
	}

	// Untraced and traced blocks alternate so both halves see the same
	// heap and cache states.
	off, on := segment{ref: ref, block: block}, segment{ref: ref, block: block}
	moved := traffic{Bytes: map[string]int64{}, Msgs: map[string]int64{}}
	for start := 0; start < 2*sz.Traced; start += block {
		if (start/block)%2 == 0 {
			for r := start; r < start+block; r++ {
				measure(w, nil, r, &off, res)
			}
			continue
		}
		before := w.traffic()
		tr.on = true
		for r := start; r < start+block; r++ {
			measure(w, tr, r, &on, res)
		}
		tr.on = false
		moved.add(w.traffic().minus(before))
	}
	res.Attempted, res.Failed = off.attempted+on.attempted, off.failed+on.failed
	res.Missed = off.missed + on.missed
	if on.completed == 0 || len(off.ms) == 0 {
		return res, fmt.Errorf("%s: no traced round completed: %v", name, res.Errors)
	}
	probes, err := w.probes()
	if err != nil {
		return res, fmt.Errorf("%s: probes: %w", name, err)
	}
	all := ledger(tr.totals(), w.facts(), probes, moved, &off, &on)
	all["round.ref_speed"] = ref.speed()
	all["round.cpu_p50_ms"] = quantile(off.cpuMs, 0.5) * ref.factor()
	res.Metrics = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.Name] = all[m.Name] // facts and probes also carry undeclared helper values
	}
	if un, wall := res.Metrics["round.unattributed_ms"], res.Metrics["round.traced_ms"]; un > maxUnattributed*wall {
		res.fail(fmt.Errorf("%s: ledger leaves %.3f of %.3f ms unattributed", name, un, wall))
	}
	return res, nil
}

// measure runs round r: untimed prepare, the timed round (under a root
// span when tracing), then the untimed oracle.
func measure(w workload, tr *tracer, r int, seg *segment, res *result) {
	seg.attempted++
	if seg.ref != nil && r%seg.block == 0 {
		seg.ref.sample()
	}
	cp := processCPU()
	if err := w.prepare(r); err != nil {
		seg.failed++
		res.fail(err)
		return
	}
	seg.prepare += processCPU() - cp

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.round = int32(r)
	}
	c0, t0 := processCPU(), time.Now()
	root := tr.open(tr.id("round", "round"))
	out := w.round(r)
	tr.close(root)
	dt, dc := time.Since(t0), processCPU()-c0
	runtime.ReadMemStats(&m1)
	seg.alloc += m1.TotalAlloc - m0.TotalAlloc
	seg.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	seg.peakHeap = max(seg.peakHeap, m1.HeapInuse)

	if out.Err != nil {
		seg.failed++
		res.fail(out.Err)
		return
	}
	seg.ms, seg.cpuMs = append(seg.ms, ms(dt)), append(seg.cpuMs, ms(dc))
	if out.Missed {
		seg.missed++
		return
	}
	want, err := w.check(r)
	if err != nil {
		seg.failed++
		res.fail(err)
		return
	}
	seg.completed++
	seg.bytes += out.Bytes
	seg.wantBytes += want
}

// ledger derives the per-layer metrics of the traced rounds (per round)
// from the spans, the traffic they moved, the workload's facts and probes.
func ledger(tot layerTotals, facts, probes map[string]float64, moved traffic, off, on *segment) map[string]float64 {
	n := float64(on.attempted)
	self := func(name string) float64 { return float64(tot.SelfNs[name]) / 1e6 / n }
	dur := func(name string) float64 { return float64(tot.DurNs[name]) / 1e6 / n }
	calls := func(name string) float64 { return float64(tot.Calls[name]) / n }
	msgs := func(kind string) float64 { return float64(moved.Msgs[kind]) / n }
	byts := func(kind string) float64 { return float64(moved.Bytes[kind]) / n }
	dim, peers := facts["dim"], facts["peers"]

	m := map[string]float64{}
	for k, v := range facts {
		m[k] = v
	}
	for k, v := range probes {
		m[k] = v
	}

	m["fl.train_ms"], m["fl.weights_io_ms"], m["fl.fedavg_ms"] = self("fl.train"), self("fl.weights_io"), self("fl.fedavg")
	m["fl.train_samples_per_s"] = rate(facts["samples_per_round"], m["fl.train_ms"])

	m["secretshare.divide_ms"], m["secretshare.divide_calls"] = self("secretshare.divide"), calls("secretshare.divide")
	m["secretshare.divide_mb_s"] = rate(calls("secretshare.divide")*dim*8/1e6, m["secretshare.divide_ms"])

	m["sac.run_ms"], m["sac.self_ms"], m["sac.runs_per_round"] = dur("sac.run"), self("sac.run"), calls("sac.run")
	m["sac.recovered_per_round"] = msgs(kindRecovery)
	m["sac.msgs_per_round.share"], m["sac.msgs_per_round.subtotal"] = msgs(kindShare), msgs(kindSubtotal)
	m["sac.msgs_per_round"] = msgs(kindShare) + msgs(kindSubtotal) + msgs(kindRecovery) + msgs(kindRecoveryReq)

	var dataMsgs, dataBytes float64
	for kind := range moved.Msgs {
		if kind != kindRaft {
			dataMsgs, dataBytes = dataMsgs+msgs(kind), dataBytes+byts(kind)
		}
	}
	m["transport.msgs_per_round"], m["transport.bytes_per_round"] = dataMsgs, dataBytes
	for _, leg := range []string{"share", "subtotal", "upload", "download", "broadcast"} {
		d := dur("transport.send." + leg)
		m["transport.send_ms."+leg] = d
		m["transport.send_ms"] += d
	}
	m["transport.drain_ms"] = dur("transport.drain")
	if m["transport.send_ms"] > 0 {
		// Only the TCP workload routes messages through a wrapped Network;
		// each message is one wire frame encoded and decoded inside Send.
		m["wire.frames_per_round"] = dataMsgs
		m["wire.encode_ms"] = probes["wire.encode_frame_ms"] * dataMsgs
		m["wire.decode_ms"] = probes["wire.decode_frame_ms"] * dataMsgs
		m["transport.socket_ms"] = math.Max(0, m["transport.send_ms"]-m["wire.encode_ms"]-m["wire.decode_ms"])
		m["transport.tcp_mb_s"] = rate(dataBytes/1e6, m["transport.send_ms"])
		var measured, model float64
		for i, leg := range []string{"share", "subtotal", "upload", "download", "broadcast"} {
			key := fmt.Sprintf("p%d", i+1)
			want := facts["model_mb."+key] / m["transport.tcp_mb_s"] * 1e3
			got := m["transport.send_ms."+leg]
			m["costmodel.roundtime_ratio."+key] = got / want
			measured, model = measured+got, model+want
		}
		m["costmodel.roundtime_ratio"] = measured / model
	}

	// core.self_ms is what remains of AggregateRound after the divider,
	// the aggregator and the replayed compressions: on the in-memory
	// workloads that is the privately built mesh and the SAC engine.
	m["core.aggregate_ms"] = dur("core.aggregate")
	if m["core.aggregate_ms"] > 0 {
		// A replayed probe cannot have taken longer than the span it ran in.
		m["compress.compress_ms"] = math.Min(m["compress.compress_ms"], self("core.aggregate"))
		m["core.self_ms"] = self("core.aggregate") - m["compress.compress_ms"]
		m["core.subgroup_sacs_per_round"] = facts["sacs_per_round"]
		m["core.ns_per_peer"] = m["core.aggregate_ms"] * 1e6 / peers
	}

	m["cluster.runfor_ms"] = self("cluster.runfor")
	m["cluster.sim_speedup"] = rate(facts["virtual_ms_per_round"]/1e3, m["cluster.runfor_ms"])
	m["raft.msgs_per_round"], m["raft.bytes_per_round"] = msgs(kindRaft), byts(kindRaft)

	if on.wantBytes > 0 {
		m["costmodel.bytes_ratio"] = float64(on.bytes) / float64(on.wantBytes)
	}

	m["round.p50_ms"], m["round.p90_ms"], m["round.samples"] = quantile(off.ms, 0.5), quantile(off.ms, 0.9), float64(len(off.ms))
	m["round.mean_ms"] = mean(off.ms)
	m["round.traced_ms"] = float64(tot.WallNs) / 1e6 / n
	m["round.unattributed_ms"] = self("round.round")
	m["round.trace_overhead_ratio"] = quantile(on.ms, 0.5)/quantile(off.ms, 0.5) - 1
	m["round.peak_heap_mb"] = float64(max(off.peakHeap, on.peakHeap)) / 1e6
	m["round.gc_pause_ms"] = float64(on.gcPauseNs) / 1e6 / n
	return m
}

// rate returns amount per second given a duration in ms; 0 when none ran.
func rate(amount, durMs float64) float64 {
	if durMs <= 0 {
		return 0
	}
	return amount / (durMs / 1e3)
}

func orNA(facts map[string]float64, name string) float64 {
	if v, ok := facts[name]; ok {
		return v
	}
	return notApplicable
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; it leaves xs untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
