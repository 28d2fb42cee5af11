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
	"slices"

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

// System executes two-layer aggregations with persistent traffic
// accounting across rounds.
type System struct {
	cfg     Config
	counter *transport.Counter
	rng     *rand.Rand
	tel     sysTel
	// sacRngs[g] is subgroup g's SAC rng. Each round re-seeds it, which
	// resets it to exactly the stream a fresh rand.NewSource(seed) gives
	// without allocating a ~4.9 KB source per subgroup per round.
	sacRngs []*rand.Rand
	nodes   []node // nodes[i] is peer i's side of the FedAvg layer
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
	s := &System{cfg: cfg, counter: transport.NewCounter(), rng: rng, tel: newSysTel(cfg.Telemetry)}
	s.resize()
	return s, nil
}

// resize gives the system one SAC rng for each of its subgroups and one
// node for each of its peers, keeping those it has.
func (s *System) resize() {
	m, n := len(s.cfg.Sizes), s.cfg.NumPeers()
	for len(s.sacRngs) < m {
		s.sacRngs = append(s.sacRngs, rand.New(rand.NewSource(0)))
	}
	s.sacRngs = s.sacRngs[:m]
	s.nodes = append(s.nodes, make([]node, max(0, n-len(s.nodes)))...)[:n]
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
	s.resize()
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

// runSAC runs one of the system's SACs through sac.Run — a subgroup's,
// the upper layer's under SecureUpper, or the one-layer baseline — on
// sacOn's recipe with set's K, Leader, Mode, Adversary and Guard.
func (s *System) runSAC(set sac.Config, rng *rand.Rand, models [][]float64, crash sac.CrashPlan) (*sac.Result, error) {
	mesh, cfg := sacOn(len(models), s.counter, s.cfg.Telemetry, s.cfg.Divider, rng)
	cfg.K, cfg.Leader, cfg.Mode, cfg.Adversary, cfg.Guard = set.K, set.Leader, set.Mode, set.Adversary, set.Guard
	return sac.Run(mesh, cfg, models, crash)
}

// plan checks all of spec against the system and the models before the
// round counts anything, and returns what every node of the round knows
// but the FedAvg leader's subgroup, and the degraded subgroups in spec
// order, once each.
func (s *System) plan(models [][]float64, spec RoundSpec) (*plan, []int, error) {
	n, m := s.cfg.NumPeers(), len(s.cfg.Sizes)
	switch {
	case len(models) != n:
		return nil, nil, fmt.Errorf("core: %d models for %d peers", len(models), n)
	case spec.SampleCounts != nil && len(spec.SampleCounts) != n:
		return nil, nil, fmt.Errorf("core: %d sample counts for %d peers", len(spec.SampleCounts), n)
	case spec.Leaders != nil && len(spec.Leaders) != m:
		return nil, nil, fmt.Errorf("core: %d leaders for %d subgroups", len(spec.Leaders), m)
	}
	p := &plan{cfg: &s.cfg, dim: len(models[0]), counts: spec.SampleCounts, offsets: make([]int, m+1), leaders: make([]int, m)}
	// A ragged model is the caller's error, not a failed subgroup SAC that
	// the round would skip; so is a plan for a peer that is not there.
	for i, model := range models {
		if len(model) != p.dim {
			return nil, nil, fmt.Errorf("core: model %d has %d weights, want %d", i, len(model), p.dim)
		}
	}
	if err := errors.Join(checkPlans("crash", spec.Crash, s.cfg.Sizes), checkPlans("adversary", spec.Adversary, s.cfg.Sizes)); err != nil {
		return nil, nil, err
	}
	var degraded []int
	for _, g := range spec.Degraded {
		if g < 0 || g >= m {
			return nil, nil, fmt.Errorf("core: degraded subgroup %d out of [0,%d)", g, m)
		}
		if p.leaders[g] == 0 {
			p.leaders[g], degraded = -1, append(degraded, g)
		}
	}
	for g, size := range s.cfg.Sizes {
		p.offsets[g+1] = p.offsets[g] + size
		if p.leaders[g] < 0 {
			continue // a subgroup without quorum may have no leader at all
		}
		if spec.Leaders != nil {
			p.leaders[g] = spec.Leaders[g]
		}
		if p.leaders[g] < 0 || p.leaders[g] >= size {
			return nil, nil, fmt.Errorf("core: subgroup %d leader %d out of [0,%d)", g, p.leaders[g], size)
		}
		p.leaders[g] += p.offsets[g]
	}
	return p, degraded, nil
}

// checkPlans rejects a per-subgroup plan keyed outside the subgroups or
// naming a peer outside its subgroup.
func checkPlans[P ~map[int]V, V any](what string, plans map[int]P, sizes []int) error {
	for g, plan := range plans {
		if g < 0 || g >= len(sizes) {
			return fmt.Errorf("core: %s plan for subgroup %d out of [0,%d)", what, g, len(sizes))
		}
		for i := range plan {
			if i < 0 || i >= sizes[g] {
				return fmt.Errorf("core: %s plan for peer %d of subgroup %d out of [0,%d)", what, i, g, sizes[g])
			}
		}
	}
	return nil
}

// AggregateRound runs Alg. 3 once. models[i] is peer i's flat weight
// vector (global peer indexing per Config.Sizes); spec carries the round
// parameters — typically the leader assignments tracked by the two-layer
// Raft (internal/cluster).
//
// It drives the round as sac.Run drives a SAC: it runs every SAC, decides
// what no single peer can — which subgroups the FedAvg leader waits for
// (fraction p) and which peer leads the FedAvg layer — and steps one
// node per peer through the FedAvg layer, charging every message a node
// sends once, by its payload.
func (s *System) AggregateRound(models [][]float64, spec RoundSpec) (*RoundResult, error) {
	p, degraded, err := s.plan(models, spec)
	if err != nil {
		return nil, err
	}
	m := len(s.cfg.Sizes)
	before := s.counter.TotalBytes()
	s.tel.roundsStarted.Inc()
	res := &RoundResult{SubgroupAvgs: make([][]float64, m), Degraded: degraded}

	// Each subgroup SAC draws from its own rng stream, seeded from the
	// system rng; a degraded subgroup still consumes its seed, so losing
	// quorum in one subgroup does not move the shares of the others.
	results := make([]*sac.Result, m)
	for g, leader := range p.leaders {
		seed := s.rng.Int63()
		if leader < 0 {
			continue // no quorum: the round proceeds without this subgroup
		}
		s.sacRngs[g].Seed(seed)
		lo, hi := p.offsets[g], p.offsets[g+1]
		set := sac.Config{K: s.cfg.thresholdFor(g, hi-lo), Leader: leader - lo, Mode: sac.ModeLeader, Adversary: spec.Adversary[g], Guard: s.cfg.Guard}
		if results[g], err = s.runSAC(set, s.sacRngs[g], models[lo:hi], spec.Crash[g]); err != nil {
			s.tel.sacFailed.Inc()
		}
	}
	var okSubs []int
	for g, r := range results {
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

	// The FedAvg layer is led by the Raft-elected leader when it
	// participates, otherwise by the first participant's leader.
	p.fed = participate[0]
	if spec.FedLeader >= 0 && slices.Contains(participate, spec.FedLeader) {
		p.fed = spec.FedLeader
	}
	for i := range s.nodes {
		s.nodes[i].Begin(i, p)
	}
	fed := &s.nodes[p.leaders[p.fed]]
	fed.Lead(participate)
	var inputs [][]float64 // the upper SAC's, under SecureUpper
	// deliver hands what node j wants sent, and what that makes its
	// receivers send, to the receivers, charging each message once, by its
	// payload: all but the FedAvg leader's upload to itself, which never
	// leaves the process, and under SecureUpper an upload's model, which
	// the upper SAC carries while its weight goes on in the clear.
	deliver := func(j int) error {
		var queue []message
		for {
			send, err := s.nodes[j].Ready()
			if err != nil {
				return err
			}
			queue = append(queue, send...)
			if len(queue) == 0 {
				return nil
			}
			msg := queue[0]
			queue = queue[1:]
			switch {
			case s.cfg.SecureUpper && msg.Kind == KindUpload:
				inputs = append(inputs, msg.Model)
				msg.Model = nil
			case msg.From != msg.To:
				s.counter.Record(msg.Kind, msg.Bytes())
			}
			j = msg.To
			s.nodes[j].Step(msg)
		}
	}
	for _, g := range participate {
		s.nodes[p.leaders[g]].Upload(results[g])
		if err := deliver(p.leaders[g]); err != nil {
			return nil, err
		}
	}
	if len(inputs) > 1 {
		r, err := s.runSAC(sac.Config{K: len(inputs), Mode: sac.ModeLeader}, s.rng, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("core: secure upper layer: %w", err)
		}
		fed.Secured(r)
		if err := deliver(p.leaders[p.fed]); err != nil {
			return nil, err
		}
	}
	res.Global, res.GlobalBound = fed.global, fed.bound
	res.Bytes = s.counter.TotalBytes() - before
	s.tel.fedavgWeight.Set(fed.total)
	s.tel.roundBytes.Observe(float64(res.Bytes))
	s.tel.roundsCompleted.Inc()
	s.tel.reg.Trace("round/aggregate", uint64(p.fed), p.fed,
		telemetry.F("subgroups_ok", int64(len(okSubs))),
		telemetry.F("participated", int64(len(participate))),
		telemetry.F("bytes", res.Bytes))
	return res, nil
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
	r, err := s.runSAC(sac.Config{K: n, Mode: sac.ModeBroadcast}, s.rng, models, nil)
	if err != nil {
		return nil, err
	}
	return &RoundResult{
		Global:       r.Avg,
		Participated: []int{0},
		Bytes:        s.counter.TotalBytes() - before,
	}, nil
}
