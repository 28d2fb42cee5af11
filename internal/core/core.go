// Package core implements the paper's primary contribution: the two-layer
// model-parameter aggregation system (Sec. IV, Alg. 3).
//
// Peers are divided into subgroups. Each round, every subgroup runs a
// (fault-tolerant, k-out-of-n) SAC aggregation with its leader collecting
// the subgroup average; the subgroup leaders form the FedAvg layer, whose
// leader computes the sample-count-weighted average of the subgroup
// models and broadcasts it back through the subgroup leaders to every
// peer. The FedAvg leader may aggregate only a fraction p of the
// subgroups (Sec. VI-A3's "slow subgroups" timeout behaviour): it takes
// the first ⌈p·m⌉ uploads that arrive, and every other upload still
// crosses the wire and is discarded.
//
// All traffic flows through byte-counting transports, so each round's
// measured communication can be compared against the closed forms of
// Sec. VII (implemented in internal/costmodel).
package core

import (
	"cmp"
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
	// Fraction is the paper's p: the FedAvg leader combines the first
	// ⌈p·m⌉ uploads that arrive (at least one), or what it holds when its
	// timeout fires; 0 means 1.0. It saves waiting, not bytes: every
	// subgroup with a model still uploads it.
	Fraction float64
	// Divider selects the secret-sharing scheme (nil: paper's Alg. 1).
	Divider secretshare.Divider
	// Aggregator selects the upper-layer combination rule (nil: FedAvg).
	// The paper notes the system is agnostic to this choice; robust
	// rules (fl.CoordinateMedian, fl.TrimmedMean) resist poisoned
	// subgroup models. Rejected together with SecureUpper (SAC computes
	// a weighted average by construction).
	Aggregator fl.Aggregator
	// Guard, when non-nil, arms the robust-aggregation defence inside
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
	if !(c.Fraction >= 0 && c.Fraction <= 1) {
		return fmt.Errorf("core: fraction %v out of [0,1]", c.Fraction)
	}
	if err := c.Guard.Validate(); err != nil {
		return err
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
	// sacRng is the rng of the subgroup SAC being run. Each SAC re-seeds
	// it, which resets it to exactly the stream a fresh
	// rand.NewSource(seed) gives without allocating a ~4.9 KB source per
	// SAC; the SACs run one after another and none keeps it past its end.
	sacRng *rand.Rand
	// The model vectors a round writes, kept across rounds, whichever
	// nodes lead: decoded[g] is what subgroup g's compressed upload
	// decodes into at the FedAvg leader, avgs[g] subgroup g's SAC
	// average, uppers[g] its leader's upper-SAC input under SecureUpper,
	// and global the global model, unless a Config.Aggregator makes it.
	// Under Config.Compression, blocks[g] is what subgroup g's leader
	// compresses its upload into, and globalBlock what the FedAvg leader
	// compresses the global model into.
	decoded, avgs, uppers [][]float64
	global                []float64
	blocks                []compress.Delta
	globalBlock           compress.Delta
	loop                  loop
}

// sysTel holds the system's pre-resolved round-lifecycle handles (nil
// no-ops without a registry).
type sysTel struct {
	reg               *telemetry.Registry
	roundsStarted     *telemetry.Counter
	roundsCompleted   *telemetry.Counter
	subgroupsOK       *telemetry.Counter
	subgroupsExcluded *telemetry.Counter
	byzSubgroups      *telemetry.Counter
	sacFailed         *telemetry.Counter
	msgsInvalid       *telemetry.Counter
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
		byzSubgroups:      reg.Counter("round/byzantine_subgroups"),
		sacFailed:         reg.Counter("round/sac_failed"),
		msgsInvalid:       reg.Counter("sac/msgs_invalid"),
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
	s := &System{cfg: cfg, counter: transport.NewCounter(), rng: rng, sacRng: rand.New(rand.NewSource(0)), tel: newSysTel(cfg.Telemetry)}
	s.resize()
	return s, nil
}

// resize gives the system a slot for each model vector of each of its
// subgroups and a node and an inbox for each of its peers, keeping those
// it has, and meters its peers by their ids.
func (s *System) resize() {
	m, n, l := len(s.cfg.Sizes), s.cfg.NumPeers(), &s.loop
	for _, v := range []*[][]float64{&s.decoded, &s.avgs, &s.uppers} {
		*v = append(*v, make([][]float64, max(0, m-len(*v)))...)[:m]
	}
	s.blocks = append(s.blocks, make([]compress.Delta, max(0, m-len(s.blocks)))...)[:m]
	l.nodes = append(l.nodes, make([]node, max(0, n-len(l.nodes)))...)[:n]
	l.inbox = append(l.inbox, make([][]message, max(0, n-len(l.inbox)))...)[:n]
	l.down, l.ids = make([]bool, n), make([]int, n)
	for i := range l.ids {
		l.ids[i] = i
	}
	l.meter = transport.NewMeter(n, s.counter, s.cfg.Telemetry)
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

// RoundResult reports one aggregation round. Its model vectors, Global
// and SubgroupAvgs, are the System's: valid until its next round, which
// writes them again, so a caller that keeps them longer copies them. The
// one exception is a Global a Config.Aggregator made, which is the
// caller's. No field exposes a compressed block: those the round sent
// are the System's too, and GlobalBound is a copy.
type RoundResult struct {
	// Global is the new global model (FedAvg over participating
	// subgroups' SAC averages).
	Global []float64
	// SubgroupAvgs holds each subgroup's SAC average (nil for subgroups
	// whose SAC failed).
	SubgroupAvgs [][]float64
	// Participated lists the subgroups whose uploads the FedAvg leader
	// combined, in arrival order (slow or failed subgroups are excluded).
	Participated []int
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

// errNoSubgroups is returned when no subgroup produced an aggregate.
var errNoSubgroups = errors.New("core: no subgroup completed SAC")

// RoundSpec carries the per-round parameters of an aggregation. The zero
// value is valid: uniform weighting, no crashes, leader 0 in every
// subgroup, and subgroup 0's leader leading the FedAvg layer.
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
	// FedLeader is the subgroup whose leader leads the FedAvg layer, as
	// elected by the FedAvg layer's Raft group. It leads whether or not
	// its own subgroup participates; a round whose FedAvg leader is down
	// makes no global model and fails.
	FedLeader int
}

// plan checks all of spec against the system and the models before the
// round counts anything, and returns what every node of the round knows.
func (s *System) plan(models [][]float64, spec RoundSpec) (*plan, error) {
	n, m := s.cfg.NumPeers(), len(s.cfg.Sizes)
	switch {
	case len(models) != n:
		return nil, fmt.Errorf("core: %d models for %d peers", len(models), n)
	case spec.SampleCounts != nil && len(spec.SampleCounts) != n:
		return nil, fmt.Errorf("core: %d sample counts for %d peers", len(spec.SampleCounts), n)
	case spec.Leaders != nil && len(spec.Leaders) != m:
		return nil, fmt.Errorf("core: %d leaders for %d subgroups", len(spec.Leaders), m)
	case spec.FedLeader < 0 || spec.FedLeader >= m:
		return nil, fmt.Errorf("core: FedAvg leader's subgroup %d out of [0,%d)", spec.FedLeader, m)
	}
	p := &plan{cfg: &s.cfg, dim: len(models[0]), counts: spec.SampleCounts, offsets: make([]int, m+1), leaders: make([]int, m),
		fed: spec.FedLeader, want: max(1, int(cmp.Or(s.cfg.Fraction, 1)*float64(m)+0.5))}
	// A ragged model is the caller's error, not a failed subgroup SAC that
	// the round would skip; so is a plan for a peer that is not there.
	for i, model := range models {
		if len(model) != p.dim {
			return nil, fmt.Errorf("core: model %d has %d weights, want %d", i, len(model), p.dim)
		}
	}
	if err := errors.Join(checkPlans("crash", spec.Crash, s.cfg.Sizes), checkPlans("adversary", spec.Adversary, s.cfg.Sizes)); err != nil {
		return nil, err
	}
	for g, size := range s.cfg.Sizes {
		p.offsets[g+1] = p.offsets[g] + size
		if spec.Leaders != nil {
			p.leaders[g] = spec.Leaders[g]
		}
		if p.leaders[g] < 0 || p.leaders[g] >= size {
			return nil, fmt.Errorf("core: subgroup %d leader %d out of [0,%d)", g, p.leaders[g], size)
		}
		p.leaders[g] += p.offsets[g]
	}
	return p, nil
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
// It drives one node per peer through the whole round on one delivery
// loop: every subgroup SAC, one after another, with sac.Schedule — the
// one SAC schedule, which package sac's own Run runs too — stepping the
// peers it lends the nodes; then the FedAvg layer, led by spec's
// FedLeader, and under SecureUpper the upper SAC among the participating
// leaders and the FedAvg leader, which collects it. The FedAvg leader
// picks the participants itself, from the uploads that arrive; the
// driver decides what the network would — the order they arrive in —
// and charges every message a node sends once, when it is queued.
func (s *System) AggregateRound(models [][]float64, spec RoundSpec) (*RoundResult, error) {
	p, err := s.plan(models, spec)
	if err != nil {
		return nil, err
	}
	m, l := len(s.cfg.Sizes), &s.loop
	before := s.counter.TotalBytes()
	s.tel.roundsStarted.Inc()
	res := &RoundResult{SubgroupAvgs: make([][]float64, m)}
	l.begin(p)
	if s.cfg.Aggregator == nil {
		s.global = fit(s.global, p.dim)
	}
	fed := &l.nodes[p.leaders[p.fed]]
	fed.Lead(s.decoded, s.global, &s.globalBlock)

	// Each subgroup SAC draws from its own rng stream, seeded from the
	// system rng.
	var okSubs []int
	for g, leader := range p.leaders {
		s.sacRng.Seed(s.rng.Int63())
		lo, hi := p.offsets[g], p.offsets[g+1]
		cfg := s.sacConfig(hi-lo, s.sacRng)
		cfg.K, cfg.Leader, cfg.Adversary, cfg.Guard = s.cfg.thresholdFor(g, hi-lo), leader-lo, spec.Adversary[g], s.cfg.Guard
		s.avgs[g] = fit(s.avgs[g], p.dim)
		r, err := l.schedule(l.ids[lo:hi], false, cfg, models[lo:hi], spec.Crash[g], s.avgs[g])
		switch {
		case err != nil:
			s.tel.sacFailed.Inc()
			continue
		case len(r.Excluded) > 0:
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
		return nil, errNoSubgroups
	}
	s.tel.subgroupsOK.Add(int64(len(okSubs)))

	// Every subgroup with a model uploads, each delivered before the next
	// is sent, in the network's stead: in a random order (slow subgroups)
	// when the FedAvg leader wants fewer. Then its timeout fires.
	order := okSubs
	if p.want < len(okSubs) {
		order = make([]int, len(okSubs))
		for i, j := range s.rng.Perm(len(okSubs)) {
			order[i] = okSubs[j]
		}
	}
	for _, g := range order {
		if s.cfg.SecureUpper {
			s.uppers[g] = fit(s.uppers[g], p.dim)
		}
		l.nodes[p.leaders[g]].Upload(s.uppers[g], &s.blocks[g])
		if err := l.settle(s.tel.msgsInvalid); err != nil {
			return nil, err
		}
	}
	fed.Expire()
	if err := l.settle(s.tel.msgsInvalid); err != nil {
		return nil, err
	}
	res.Participated = fed.taken
	if excluded := len(okSubs) - len(fed.taken); excluded > 0 {
		s.tel.subgroupsExcluded.Add(int64(excluded))
	}
	if upper := fed.taken; s.cfg.SecureUpper && len(upper) > 0 && !slices.Equal(upper, []int{p.fed}) {
		// The upper SAC: the leaders whose uploads the FedAvg leader took
		// contribute their count·avg in arrival order, and the FedAvg leader
		// collects, last and with a zero input when it took none of its own.
		if !slices.Contains(upper, p.fed) {
			upper = append(slices.Clip(upper), p.fed)
			s.uppers[p.fed] = fit(s.uppers[p.fed], p.dim)
			clear(s.uppers[p.fed])
		}
		members, models := make([]int, len(upper)), make([][]float64, len(upper))
		for i, g := range upper {
			members[i], models[i] = p.leaders[g], s.uppers[g]
		}
		cfg := s.sacConfig(len(models), s.rng)
		cfg.Leader = slices.Index(upper, p.fed)
		if _, err := l.schedule(members, true, cfg, models, nil, s.global); err != nil {
			return nil, fmt.Errorf("core: secure upper layer: %w", err)
		}
		if err := l.settle(s.tel.msgsInvalid); err != nil {
			return nil, err
		}
	}
	if fed.global == nil {
		return nil, fmt.Errorf("core: FedAvg leader %d is down", fed.id)
	}
	res.Global, res.GlobalBound = fed.global, fed.bound
	res.Bytes = s.counter.TotalBytes() - before
	s.tel.fedavgWeight.Set(fed.total)
	s.tel.roundBytes.Observe(float64(res.Bytes))
	s.tel.roundsCompleted.Inc()
	s.tel.reg.Trace("round/aggregate", uint64(p.fed), p.fed,
		telemetry.F("subgroups_ok", int64(len(okSubs))),
		telemetry.F("participated", int64(len(fed.taken))),
		telemetry.F("bytes", res.Bytes))
	return res, nil
}

// fit returns v as a vector of dim weights, made only when v has no room
// for them; a round writes every weight of it.
func fit(v []float64, dim int) []float64 {
	if cap(v) < dim {
		return make([]float64, dim)
	}
	return v[:dim]
}

// sacConfig is the one recipe for the SACs a round runs — subgroup,
// secure upper layer, one-layer baseline: n-out-of-n in leader mode
// (leader 0) with the system's divider and telemetry. A caller changes
// only what its SAC differs in.
func (s *System) sacConfig(n int, rng *rand.Rand) sac.Config {
	return sac.Config{N: n, K: n, Mode: sac.ModeLeader, Divider: s.cfg.Divider, Rng: rng, Telemetry: s.cfg.Telemetry}
}

// BaselineAggregate runs the original one-layer SAC (Alg. 2, broadcast
// mode) over all peers, for comparison: one model per peer, all of one
// length. It steps the system's nodes, as one subgroup, on the same loop
// as AggregateRound, and its traffic lands on the same counter.
func (s *System) BaselineAggregate(models [][]float64) (*RoundResult, error) {
	p, err := s.plan(models, RoundSpec{})
	if err != nil {
		return nil, err
	}
	n, l := len(models), &s.loop
	p.offsets, p.leaders = []int{0, n}, []int{0} // every peer in one subgroup
	before := s.counter.TotalBytes()
	l.begin(p)
	cfg := s.sacConfig(n, s.rng)
	cfg.Mode = sac.ModeBroadcast
	s.global = fit(s.global, p.dim)
	r, err := l.schedule(l.ids, false, cfg, models, nil, s.global)
	if err != nil {
		return nil, err
	}
	return &RoundResult{
		Global:       r.Avg,
		Participated: []int{0},
		Bytes:        s.counter.TotalBytes() - before,
	}, nil
}

// loop is a round's one delivery loop: its nodes, an inbox per node, who
// has crashed this round, and the meter every message is charged on
// once, when it is queued. While a SAC runs the loop is its sac.Fabric,
// and members maps the SAC's indices to nodes.
type loop struct {
	nodes   []node
	inbox   [][]message
	down    []bool
	meter   transport.Meter
	p       *plan
	ids     []int // 0, 1, …, N−1
	members []int
}

// begin starts a round of p at every node, none of them crashed.
func (l *loop) begin(p *plan) {
	for i := range l.nodes {
		l.nodes[i].Begin(i, p)
	}
	clear(l.down)
	l.p = p
}

// empty drops what node id's inbox holds.
func (l *loop) empty(id int) {
	clear(l.inbox[id])
	l.inbox[id] = l.inbox[id][:0]
}

// schedule runs one SAC of cfg over the nodes members — a subgroup's, the
// upper one, or the baseline's — with sac.Schedule, its average going
// into avg: it lends each member its peer of a working set borrowed for
// the SAC, and takes the peers back once the schedule has ended the
// round at them, dropping what the SAC left in their inboxes if it
// aborted.
func (l *loop) schedule(members []int, upper bool, cfg sac.Config, models [][]float64, crash sac.CrashPlan, avg []float64) (*sac.Result, error) {
	sc := sac.BorrowScratch(cfg.N, cfg.K, len(models[0]))
	defer sac.ReturnScratch(sc)
	peers, err := sc.Peers(cfg, len(models[0]))
	if err != nil {
		return nil, err
	}
	for j, id := range members {
		l.nodes[id].join(upper, &peers[j], members)
	}
	l.members = members
	r, err := sac.Schedule(l, peers, cfg, models, crash, avg)
	for _, id := range members {
		l.nodes[id].leave(upper)
		l.empty(id)
	}
	return r, err
}

// Crash, Flush and Deliver make the loop the running SAC's sac.Fabric,
// j being an index of that SAC. A crashed node stays down, its inbox
// dropped, for the rest of the round.
func (l *loop) Crash(j int) error {
	id := l.members[j]
	l.down[id] = true
	l.meter.Dropped(len(l.inbox[id]))
	l.empty(id)
	return nil
}

func (l *loop) Flush(j int) (int, int, error) { return l.flush(l.members[j]) }

func (l *loop) Deliver(j int) error {
	l.deliver(l.members[j])
	return nil
}

// flush queues what node id wants sent, each message at its receiver,
// charging it first: by its payload, but for the FedAvg leader's upload
// to itself, which never leaves the process, and under SecureUpper an
// upload's weight, whose model travels as upper-SAC shares. A message to
// a crashed node is charged, then dropped. It returns how many messages
// the node sent and how many it discarded.
func (l *loop) flush(id int) (sent, invalid int, err error) {
	msgs, invalid, err := l.nodes[id].Ready()
	for _, m := range msgs {
		if m.From != m.To && !(l.p.cfg.SecureUpper && m.Kind == KindUpload) {
			l.meter.Sent(m.From, m.Kind, m.Bytes())
		}
		if l.down[m.To] {
			l.meter.Dropped(1)
			continue
		}
		l.inbox[m.To] = append(l.inbox[m.To], m)
	}
	return len(msgs), invalid, err
}

// deliver steps node id through its inbox.
func (l *loop) deliver(id int) {
	for _, m := range l.inbox[id] {
		l.nodes[id].Step(m)
	}
	l.meter.Received(len(l.inbox[id]))
	l.empty(id)
}

// settle delivers to and flushes every node until nobody sends, counting
// the sac/* messages the nodes discarded on invalid.
func (l *loop) settle(invalid *telemetry.Counter) error {
	for busy := true; busy; {
		busy = false
		for id := range l.nodes {
			l.deliver(id)
			sent, bad, err := l.flush(id)
			if err != nil {
				return err
			}
			busy = busy || sent > 0
			invalid.Add(int64(bad))
		}
	}
	return nil
}
