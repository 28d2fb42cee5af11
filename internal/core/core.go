// Package core implements the paper's primary contribution: the two-layer
// model-parameter aggregation system (Sec. IV, Alg. 3).
//
// Peers are divided into subgroups. Each round, every subgroup runs a
// (fault-tolerant, k-out-of-n) SAC aggregation with its leader collecting
// the subgroup average; the subgroup leaders form the FedAvg layer, whose
// leader computes the sample-count-weighted average of the subgroup
// models and broadcasts it back through the subgroup leaders to every
// peer. The FedAvg leader may aggregate only a fraction p of the
// subgroups (Sec. VI-A3's "slow subgroups" timeout behaviour).
//
// All traffic flows through byte-counting transports, so each round's
// measured communication can be compared against the closed forms of
// Sec. VII (implemented in internal/costmodel).
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/fl"
	"repro/internal/sac"
	"repro/internal/secretshare"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Traffic kinds recorded for the FedAvg layer (the SAC layer records its
// own kinds; see package sac).
const (
	// KindUpload: subgroup leader → FedAvg leader (SAC-aggregated model).
	KindUpload = "fedavg/upload"
	// KindDownload: FedAvg leader → subgroup leaders (global model).
	KindDownload = "fedavg/download"
	// KindBroadcast: subgroup leader → subgroup followers (global model).
	KindBroadcast = "fedavg/broadcast"
)

// Config describes the two-layer topology.
type Config struct {
	// Sizes lists the subgroup sizes (n per subgroup). Use SplitPeers to
	// derive them the way the paper does.
	Sizes []int
	// K is the SAC reconstruction threshold per subgroup; 0 means
	// n-out-of-n for that subgroup. A single-element slice applies to
	// every subgroup (clamped to the subgroup size).
	K []int
	// Fraction is the paper's p: the fraction of subgroups whose models
	// the FedAvg leader waits for; 0 means 1.0.
	Fraction float64
	// Divider selects the secret-sharing scheme (nil: paper's Alg. 1).
	Divider secretshare.Divider
	// Aggregator selects the upper-layer combination rule (nil: FedAvg).
	// The paper notes the system is agnostic to this choice; robust
	// rules (fl.CoordinateMedian, fl.TrimmedMean) resist poisoned
	// subgroup models. Rejected together with SecureUpper (SAC computes
	// a weighted average by construction).
	Aggregator fl.Aggregator
	// Guard, when non-nil, arms the robust-aggregation defences inside
	// every subgroup SAC (share-range exclusion, cross-checked subtotal
	// combination, leader-result audit — see sac.Guard). Subgroups whose
	// leader is convicted of equivocation by the audit are dropped from
	// the round like failed subgroups.
	Guard *sac.Guard
	// SecureUpper replaces the plain FedAvg exchange in the upper layer
	// with another SAC among the participating subgroup leaders — the
	// stronger-privacy variant the paper suggests in Sec. IV-D ("in case
	// where stronger privacy guarantees are needed, SAC could be
	// employed in the higher layer"). The upper-layer cost rises from
	// 2(m−1)·|w| to (m²−1)+(m−1) = (m²+m−2)·|w|.
	SecureUpper bool
	// Telemetry, when non-nil, receives round/* lifecycle metrics and is
	// threaded into every subgroup SAC and mesh.
	Telemetry *telemetry.Registry
	// Compression, when enabled, compresses the FedAvg-layer model-delta
	// traffic — uploads (subgroup leader → FedAvg leader), downloads and
	// broadcasts — with the given scheme. Those messages are charged
	// their encoded block size instead of 8·dim, and the models that
	// cross the wire are replaced by their lossy reconstructions: the
	// FedAvg leader aggregates decoded uploads, and every peer (leader
	// included) resumes from the decoded global model, so the whole
	// fleet stays in lockstep. SAC share/subtotal traffic is never
	// compressed (shares must reconstruct exactly), and under
	// SecureUpper the uploads travel as SAC shares, so only the
	// distribution legs compress. The zero value is off and reproduces
	// byte-identical traffic and training curves.
	Compression compress.Config
}

// SplitPeers divides N peers into m subgroups as the paper does: N/m
// each, with the N mod m remainder distributed as evenly as possible
// (Fig. 13 caption).
func SplitPeers(n, m int) ([]int, error) {
	if n < 1 || m < 1 || m > n {
		return nil, fmt.Errorf("core: cannot split %d peers into %d subgroups", n, m)
	}
	sizes := make([]int, m)
	base, rem := n/m, n%m
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return sizes, nil
}

func (c *Config) validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("core: no subgroups")
	}
	for _, s := range c.Sizes {
		if s < 1 {
			return fmt.Errorf("core: subgroup size %d", s)
		}
	}
	if len(c.K) > 1 && len(c.K) != len(c.Sizes) {
		return fmt.Errorf("core: %d thresholds for %d subgroups", len(c.K), len(c.Sizes))
	}
	if c.Fraction < 0 || c.Fraction > 1 {
		return fmt.Errorf("core: fraction %v out of [0,1]", c.Fraction)
	}
	if c.SecureUpper && c.Aggregator != nil {
		return fmt.Errorf("core: SecureUpper averages by SAC and cannot apply aggregator %q", c.Aggregator.Name())
	}
	return c.Compression.Validate()
}

// thresholdFor returns the SAC threshold for subgroup g of size n.
func (c *Config) thresholdFor(g, n int) int {
	k := 0
	switch {
	case len(c.K) == 1:
		k = c.K[0]
	case len(c.K) > 1:
		k = c.K[g]
	}
	if k <= 0 || k > n {
		return n
	}
	return k
}

// NumPeers returns the total number of peers.
func (c *Config) NumPeers() int {
	n := 0
	for _, s := range c.Sizes {
		n += s
	}
	return n
}

// PeerSubgroup maps a global peer index to (subgroup, index within it).
func (c *Config) PeerSubgroup(peer int) (int, int, error) {
	off := 0
	for g, s := range c.Sizes {
		if peer < off+s {
			return g, peer - off, nil
		}
		off += s
	}
	return 0, 0, fmt.Errorf("core: peer %d out of [0,%d)", peer, off)
}

// System executes two-layer aggregations with persistent traffic
// accounting across rounds.
type System struct {
	cfg     Config
	counter *transport.Counter
	rng     *rand.Rand
	tel     sysTel
}

// sysTel holds the system's pre-resolved round-lifecycle handles (nil
// no-ops without a registry).
type sysTel struct {
	reg               *telemetry.Registry
	roundsStarted     *telemetry.Counter
	roundsCompleted   *telemetry.Counter
	subgroupsOK       *telemetry.Counter
	subgroupsExcluded *telemetry.Counter
	subgroupsDegraded *telemetry.Counter
	byzSubgroups      *telemetry.Counter
	sacFailed         *telemetry.Counter
	fedavgWeight      *telemetry.Gauge
	roundBytes        *telemetry.Histogram
}

// roundBytesBounds buckets per-round aggregation traffic in bytes.
var roundBytesBounds = []float64{1e4, 1e5, 1e6, 1e7, 1e8}

func newSysTel(reg *telemetry.Registry) sysTel {
	return sysTel{
		reg:               reg,
		roundsStarted:     reg.Counter("round/started"),
		roundsCompleted:   reg.Counter("round/completed"),
		subgroupsOK:       reg.Counter("round/subgroups_ok"),
		subgroupsExcluded: reg.Counter("round/subgroups_excluded"),
		subgroupsDegraded: reg.Counter("round/subgroups_degraded"),
		byzSubgroups:      reg.Counter("round/byzantine_subgroups"),
		sacFailed:         reg.Counter("round/sac_failed"),
		fedavgWeight:      reg.Gauge("round/fedavg_weight_total"),
		roundBytes:        reg.Histogram("round/bytes", roundBytesBounds),
	}
}

// NewSystem creates a two-layer aggregation system. rng drives share
// randomness and slow-subgroup selection; nil seeds a default.
func NewSystem(cfg Config, rng *rand.Rand) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &System{cfg: cfg, counter: transport.NewCounter(), rng: rng, tel: newSysTel(cfg.Telemetry)}, nil
}

// Reconfigure applies a membership change between rounds: the subgroup
// sizes (and per-subgroup SAC thresholds, same semantics as Config.K)
// are replaced. The continuous-churn control plane calls this at a round
// boundary with sizes derived from the replicated peer directory —
// secretshare's k-of-n geometry is recomputed per round from directory
// state, never mid-round. The traffic counter and telemetry persist
// across the change (they account the deployment, not one membership
// epoch), as does every other configuration field. A rejected
// configuration leaves the system untouched.
func (s *System) Reconfigure(sizes, k []int) error {
	next := s.cfg
	next.Sizes = append([]int(nil), sizes...)
	next.K = append([]int(nil), k...)
	if err := next.validate(); err != nil {
		return err
	}
	s.cfg = next
	return nil
}

// Counter exposes the cumulative traffic counter.
func (s *System) Counter() *transport.Counter { return s.counter }

// RoundResult reports one aggregation round.
type RoundResult struct {
	// Global is the new global model (FedAvg over participating
	// subgroups' SAC averages).
	Global []float64
	// SubgroupAvgs holds each subgroup's SAC average (nil for subgroups
	// whose SAC failed).
	SubgroupAvgs [][]float64
	// Participated lists subgroup indices included in the FedAvg
	// aggregation (slow or failed subgroups are excluded).
	Participated []int
	// Degraded echoes the subgroups skipped because they had lost Raft
	// quorum when the round ran (RoundSpec.Degraded).
	Degraded []int
	// ByzantineExcluded lists subgroups dropped because the SAC leader
	// audit convicted their leader of equivocation.
	ByzantineExcluded []int
	// ExcludedPeers maps subgroup → contributors (local indices) the
	// share-range guard excluded inside that subgroup's SAC.
	ExcludedPeers map[int][]int
	// Bytes is the traffic of this round only.
	Bytes int64
	// GlobalBound, set only when Config.Compression is enabled, is the
	// error accounting of the compressed global-model distribution:
	// every peer's copy of Global differs from the exact FedAvg result
	// by at most GlobalBound.MaxCoordErr per coordinate.
	GlobalBound *compress.Bound
}

// ErrNoSubgroups is returned when no subgroup produced an aggregate.
var ErrNoSubgroups = errors.New("core: no subgroup completed SAC")

// RoundSpec carries the per-round parameters of an aggregation. The zero
// value is valid: uniform weighting, no crashes, leader 0 in every
// subgroup, and subgroup 0's leader leading the FedAvg layer whenever
// subgroup 0 participates.
type RoundSpec struct {
	// SampleCounts[i] is peer i's n_k for FedAvg weighting (nil: uniform).
	SampleCounts []float64
	// Crash schedules SAC crash plans per subgroup index.
	Crash map[int]sac.CrashPlan
	// Leaders[g] is the index (within subgroup g) of its current leader,
	// as elected by the subgroup's Raft group. Nil means index 0.
	Leaders []int
	// Adversary schedules Byzantine behaviors per subgroup index
	// (peer indices local to the subgroup), parallel to Crash.
	Adversary map[int]sac.AdversaryPlan
	// FedLeader is the subgroup whose leader currently leads the FedAvg
	// layer; −1 (or a non-participating subgroup) falls back to the
	// first subgroup of RoundResult.Participated.
	FedLeader int
	// Degraded lists subgroups that lost Raft quorum mid-round (as
	// reported by the health layer, internal/cluster). The FedAvg leader
	// records the degradation and proceeds without them under the
	// fraction-p semantics of Sec. VI-A3 instead of stalling: no SAC is
	// attempted there, their leaders are not validated (a quorumless
	// subgroup may have none), and no distribution bytes are charged
	// toward them.
	Degraded []int
}

// sacOn is the one recipe for the SACs this package runs — subgroup,
// secure upper layer, one-layer baseline, X-layer tree group: an
// in-memory mesh of n peers charging counter, and the n-out-of-n
// leader-mode configuration (leader 0) on it. A caller changes only what
// its SAC differs in.
func sacOn(n int, counter *transport.Counter, tel *telemetry.Registry, div secretshare.Divider, rng *rand.Rand) (*transport.Mesh, sac.Config) {
	mesh := transport.NewMesh(n, counter)
	mesh.SetTelemetry(tel)
	return mesh, sac.Config{N: n, K: n, Mode: sac.ModeLeader, Divider: div, Rng: rng, Telemetry: tel}
}

// AggregateRound runs Alg. 3 once. models[i] is peer i's flat weight
// vector (global peer indexing per Config.Sizes); spec carries the round
// parameters — typically the leader assignments tracked by the two-layer
// Raft (internal/cluster).
func (s *System) AggregateRound(models [][]float64, spec RoundSpec) (*RoundResult, error) {
	sampleCounts := spec.SampleCounts
	crash := spec.Crash
	n := s.cfg.NumPeers()
	if len(models) != n {
		return nil, fmt.Errorf("core: %d models for %d peers", len(models), n)
	}
	if sampleCounts != nil && len(sampleCounts) != n {
		return nil, fmt.Errorf("core: %d sample counts for %d peers", len(sampleCounts), n)
	}
	m := len(s.cfg.Sizes)
	if spec.Leaders != nil && len(spec.Leaders) != m {
		return nil, fmt.Errorf("core: %d leaders for %d subgroups", len(spec.Leaders), m)
	}
	degraded := make(map[int]bool, len(spec.Degraded))
	dim := len(models[0])
	before := s.counter.TotalBytes()
	s.tel.roundsStarted.Inc()
	res := &RoundResult{SubgroupAvgs: make([][]float64, m)}
	for _, g := range spec.Degraded {
		if g < 0 || g >= m {
			return nil, fmt.Errorf("core: degraded subgroup %d out of [0,%d)", g, m)
		}
		if !degraded[g] {
			degraded[g] = true
			res.Degraded = append(res.Degraded, g)
		}
	}
	subCounts := make([]float64, m)

	// Validate leaders and precompute subgroup offsets.
	// Degraded subgroups skip leader validation: a subgroup without
	// quorum may legitimately have no leader at all.
	offsets := make([]int, m)
	leaders := make([]int, m)
	off := 0
	for g, size := range s.cfg.Sizes {
		offsets[g] = off
		if spec.Leaders != nil && !degraded[g] {
			leaders[g] = spec.Leaders[g]
			if leaders[g] < 0 || leaders[g] >= size {
				return nil, fmt.Errorf("core: subgroup %d leader %d out of [0,%d)", g, leaders[g], size)
			}
		}
		off += size
	}
	// Each subgroup SAC draws from its own rng stream, seeded from the
	// system rng; a degraded subgroup still consumes its seed, so losing
	// quorum in one subgroup does not move the shares of the others.
	sacResults := make([]*sac.Result, m)
	for g, size := range s.cfg.Sizes {
		seed := s.rng.Int63()
		if degraded[g] {
			continue // no quorum: the round proceeds without this subgroup
		}
		mesh, cfg := sacOn(size, s.counter, s.cfg.Telemetry, s.cfg.Divider, rand.New(rand.NewSource(seed)))
		cfg.K, cfg.Leader = s.cfg.thresholdFor(g, size), leaders[g]
		cfg.Adversary, cfg.Guard = spec.Adversary[g], s.cfg.Guard
		r, err := sac.Run(mesh, cfg, models[offsets[g]:offsets[g]+size], crash[g])
		if err == nil {
			sacResults[g] = r
		} else {
			s.tel.sacFailed.Inc()
		}
	}
	var okSubs []int
	for g, r := range sacResults {
		if r == nil {
			continue
		}
		if len(r.Excluded) > 0 {
			if res.ExcludedPeers == nil {
				res.ExcludedPeers = make(map[int][]int)
			}
			res.ExcludedPeers[g] = r.Excluded
		}
		if r.LeaderAccused {
			// A convicted equivocator cannot be trusted with the subgroup's
			// model; the round proceeds without the subgroup (the cluster
			// layer re-elects before the next round).
			res.ByzantineExcluded = append(res.ByzantineExcluded, g)
			s.tel.byzSubgroups.Inc()
			s.tel.reg.Trace("round/byzantine_excluded", 0, g)
			continue
		}
		res.SubgroupAvgs[g] = r.Avg
		for _, c := range r.Contributors {
			if sampleCounts != nil {
				subCounts[g] += sampleCounts[offsets[g]+c]
			} else {
				subCounts[g]++
			}
		}
		okSubs = append(okSubs, g)
	}
	if len(okSubs) == 0 {
		return nil, ErrNoSubgroups
	}
	s.tel.subgroupsOK.Add(int64(len(okSubs)))
	if len(res.Degraded) > 0 {
		// Degraded-round event: the FedAvg leader records which subgroups
		// were dropped for lost quorum before proceeding under fraction p.
		s.tel.subgroupsDegraded.Add(int64(len(res.Degraded)))
		for _, g := range res.Degraded {
			s.tel.reg.Trace("round/degraded", 0, g)
		}
	}

	// Fraction p (slow subgroups): the FedAvg leader proceeds with a
	// random subset of the successful subgroups.
	frac := s.cfg.Fraction
	if frac == 0 {
		frac = 1
	}
	want := int(frac*float64(m) + 0.5)
	if want < 1 {
		want = 1
	}
	participate := okSubs
	if want < len(okSubs) {
		perm := s.rng.Perm(len(okSubs))
		participate = make([]int, 0, want)
		for _, i := range perm[:want] {
			participate = append(participate, okSubs[i])
		}
	}
	res.Participated = participate
	if excluded := len(okSubs) - len(participate); excluded > 0 {
		s.tel.subgroupsExcluded.Add(int64(excluded))
	}

	// FedAvg layer: participating leaders upload their SAC averages to
	// the FedAvg leader (the Raft-elected one when provided, otherwise
	// the first participating subgroup's leader).
	fedLeader := participate[0]
	if spec.FedLeader >= 0 {
		for _, g := range participate {
			if g == spec.FedLeader {
				fedLeader = g
			}
		}
	}
	// One FedAvg-layer message costs 8·dim bytes uncompressed, or the
	// encoded block size under Config.Compression (the closed form
	// costmodel.DistributionBytes restates the totals).
	msgBytes := int64(8 * dim)
	if s.cfg.Compression.Enabled() {
		msgBytes = s.cfg.Compression.MessageBytes(dim)
	}
	var global []float64
	var err error
	if s.cfg.SecureUpper {
		global, err = s.secureUpperAverage(res, participate, subCounts, dim)
	} else {
		var fedModels [][]float64
		var fedCounts []float64
		for _, g := range participate {
			model := res.SubgroupAvgs[g]
			if g != fedLeader {
				if s.cfg.Compression.Enabled() {
					// The upload crosses the wire compressed; the FedAvg
					// leader aggregates what it can reconstruct. The
					// leader's own model never leaves the process.
					d, cerr := s.cfg.Compression.Compress(model)
					if cerr != nil {
						return nil, cerr
					}
					model = d.Dense(nil)
				}
				s.counter.Record(KindUpload, msgBytes)
			}
			fedModels = append(fedModels, model)
			fedCounts = append(fedCounts, subCounts[g])
		}
		agg := s.cfg.Aggregator
		if agg == nil {
			agg = fl.FedAvg{}
		}
		global, err = agg.Aggregate(fedModels, fedCounts)
	}
	if err != nil {
		return nil, err
	}
	if s.cfg.Compression.Enabled() {
		// The global model is encoded once and every distribution leg
		// ships the same block, so all peers — the FedAvg leader included,
		// to keep the fleet in lockstep — resume from the decoded copy.
		d, cerr := s.cfg.Compression.Compress(global)
		if cerr != nil {
			return nil, cerr
		}
		global = d.Dense(global[:0])
		b := d.Bound
		res.GlobalBound = &b
	}
	res.Global = global

	// Distribute: FedAvg leader → every other subgroup leader (slow
	// subgroups receive the global model too — every peer resumes from
	// it), then each subgroup leader → its followers. Degraded subgroups
	// get nothing: with quorum lost there is no leader to receive the
	// model; they catch up from the next round's distribution.
	for g, size := range s.cfg.Sizes {
		if degraded[g] {
			continue
		}
		if g != fedLeader {
			s.counter.Record(KindDownload, msgBytes)
		}
		for i := 1; i < size; i++ {
			s.counter.Record(KindBroadcast, msgBytes)
		}
	}

	res.Bytes = s.counter.TotalBytes() - before
	weightTotal := 0.0
	for _, g := range participate {
		weightTotal += subCounts[g]
	}
	s.tel.fedavgWeight.Set(weightTotal)
	s.tel.roundBytes.Observe(float64(res.Bytes))
	s.tel.roundsCompleted.Inc()
	s.tel.reg.Trace("round/aggregate", uint64(fedLeader), fedLeader,
		telemetry.F("subgroups_ok", int64(len(okSubs))),
		telemetry.F("participated", int64(len(participate))),
		telemetry.F("bytes", res.Bytes))
	return res, nil
}

// secureUpperAverage aggregates the participating subgroup leaders'
// models with SAC instead of plain FedAvg (Sec. IV-D's stronger-privacy
// variant). Sample-count weighting stays exact: each leader enters
// count_g·avg_g into the SAC, and the sum is divided by the total count
// (the counts themselves are topology metadata, exchanged in the clear
// in Alg. 3 as well).
func (s *System) secureUpperAverage(res *RoundResult, participate []int, subCounts []float64, dim int) ([]float64, error) {
	scaled := make([][]float64, len(participate))
	total := 0.0
	for i, g := range participate {
		v := make([]float64, dim)
		for j, x := range res.SubgroupAvgs[g] {
			v[j] = x * subCounts[g]
		}
		scaled[i] = v
		total += subCounts[g]
	}
	if total == 0 {
		return nil, fmt.Errorf("core: secure upper layer: zero total sample count")
	}
	if len(participate) == 1 {
		// Single participant: nothing to hide, nothing to exchange.
		out := make([]float64, dim)
		for j, x := range scaled[0] {
			out[j] = x / total
		}
		return out, nil
	}
	mesh, cfg := sacOn(len(participate), s.counter, s.cfg.Telemetry, s.cfg.Divider, s.rng)
	r, err := sac.Run(mesh, cfg, scaled, nil)
	if err != nil {
		return nil, fmt.Errorf("core: secure upper layer: %w", err)
	}
	out := make([]float64, dim)
	f := float64(len(r.Contributors)) / total
	for j, x := range r.Avg {
		out[j] = x * f
	}
	return out, nil
}

// BaselineAggregate runs the original one-layer SAC (Alg. 2, broadcast
// mode) over all peers, for comparison. Traffic lands on the same
// counter.
func (s *System) BaselineAggregate(models [][]float64) (*RoundResult, error) {
	n := len(models)
	if n == 0 {
		return nil, fmt.Errorf("core: no models")
	}
	before := s.counter.TotalBytes()
	mesh, cfg := sacOn(n, s.counter, s.cfg.Telemetry, s.cfg.Divider, s.rng)
	cfg.Mode = sac.ModeBroadcast
	r, err := sac.Run(mesh, cfg, models, nil)
	if err != nil {
		return nil, err
	}
	return &RoundResult{
		Global:       r.Avg,
		Participated: []int{0},
		Bytes:        s.counter.TotalBytes() - before,
	}, nil
}
