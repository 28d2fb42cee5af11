// Package cluster implements the paper's two-layer Raft (Sec. V): every
// subgroup runs its own Raft group, the subgroup leaders form a second
// Raft group (the FedAvg layer), and a post-leader-election callback
// connects a newly elected subgroup leader to the FedAvg layer:
//
//   - Subgroup leaders periodically commit the FedAvg-layer configuration
//     (member IDs) to their subgroup's replicated log, so any future
//     leader knows whom to contact (Sec. V-A1).
//   - When a subgroup leader crashes, the subgroup elects a new leader,
//     which reads the committed configuration, polls the FedAvg layer for
//     a leader (every joinPollInterval, paper: 100 ms), and asks it to add
//     the new leader through Raft's membership-change protocol.
//   - When the FedAvg leader crashes, two elections run concurrently
//     (FedAvg layer and the crashed peer's subgroup) and the new subgroup
//     leader joins once a FedAvg leader exists (Sec. V-B1).
//
// The package runs on the discrete-event simulator (internal/simnet), so
// recovery times are measured in exact virtual milliseconds. A raft tick
// is one virtual millisecond (simnet.Tick), so every tick count here —
// election bands, heartbeats, the tuned bands — is milliseconds.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/directory"
	"repro/internal/health"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// EventKind labels recovery-relevant events on the system timeline.
type EventKind string

// Event kinds recorded by the system.
const (
	// EvSubgroupLeader: a peer became leader of its subgroup.
	EvSubgroupLeader EventKind = "subgroup-leader"
	// EvFedAvgLeader: a peer became leader of the FedAvg layer.
	EvFedAvgLeader EventKind = "fedavg-leader"
	// EvJoinedFedAvg: a new subgroup leader's membership in the FedAvg
	// layer was committed and observed by the joiner.
	EvJoinedFedAvg EventKind = "joined-fedavg"
	// EvProactiveCampaign: a follower's failure detector declared the
	// subgroup leader Down and forced an immediate election instead of
	// waiting for the U(T,2T) timeout.
	EvProactiveCampaign EventKind = "proactive-campaign"
	// EvFedRevived: a re-elected subgroup leader's crashed FedAvg-layer
	// node was revived automatically (the ReviveFedNode disaster path).
	EvFedRevived EventKind = "fed-revived"
)

// Event is one timeline entry.
type Event struct {
	At       simnet.Time
	Kind     EventKind
	Peer     uint64
	Subgroup int
}

// Options configures a two-layer system.
type Options struct {
	// NumSubgroups (m) and SubgroupSize (n).
	NumSubgroups int
	SubgroupSize int

	// ElectionTickMin/Max in ticks, i.e. milliseconds: the paper's
	// U(T, 2T) has Min = T, Max = 2T. HeartbeatTick defaults to Min/3.
	ElectionTickMin int
	ElectionTickMax int
	HeartbeatTick   int

	// Latency is the one-way link delay (paper: 15 ms): of the raft
	// networks when Topology is nil, and of the app-level join/accept
	// messages always.
	Latency simnet.Duration
	// Topology is the latency model of every subgroup network and the
	// FedAvg layer (see simnet.Topology / simnet.Preset); nil is
	// simnet.Uniform(Latency). Hosts map to regions round-robin by
	// peer ID.
	Topology *simnet.Topology

	// Profile selects the failure-handling policy of every node the
	// system ever builds (see profile.go). The zero value is Paper.
	Profile Profile

	// Telemetry, when non-nil, is threaded into every raft node and
	// records cluster/ev/* event counters and trace events. New installs
	// the simulation's virtual clock on it, so identical seeds produce
	// byte-identical snapshots.
	Telemetry *telemetry.Registry

	Seed int64
}

// autoTuneInterval is how often a node retunes its election bands from
// its observed RTTs when the profile arms the tuner.
const autoTuneInterval = 500 * simnet.Millisecond

// joinPollInterval is how often a joining subgroup leader polls the
// FedAvg layer for a leader, and the retry period of every other
// membership request that waits on one (the paper's 100 ms).
const joinPollInterval = 100 * simnet.Millisecond

// configCommitInterval is how often subgroup leaders commit the
// FedAvg-layer configuration to their subgroup log.
const configCommitInterval = 50 * simnet.Millisecond

// snapshotThreshold bounds subgroup logs: the periodic FedAvg-layer
// configuration commits grow the log forever, so it is compacted after
// this many applied entries, with the latest configuration carried in
// the snapshot.
const snapshotThreshold = 64

func (o *Options) normalize() error {
	if o.NumSubgroups < 1 || o.SubgroupSize < 1 {
		return fmt.Errorf("cluster: need NumSubgroups and SubgroupSize")
	}
	if o.ElectionTickMin <= 0 {
		o.ElectionTickMin = 150
	}
	if o.ElectionTickMax <= o.ElectionTickMin {
		o.ElectionTickMax = 2 * o.ElectionTickMin
	}
	if o.HeartbeatTick <= 0 {
		o.HeartbeatTick = o.ElectionTickMin / 3
		if o.HeartbeatTick < 1 {
			o.HeartbeatTick = 1
		}
	}
	if o.Latency < 0 {
		return fmt.Errorf("cluster: negative latency")
	}
	if o.Topology == nil {
		o.Topology = simnet.Uniform(o.Latency)
	}
	if !o.Profile.valid() {
		return fmt.Errorf("cluster: unknown profile %v", o.Profile)
	}
	return nil
}

// Peer is one participant: always a member of its subgroup's Raft group,
// and a member of the FedAvg layer while it leads its subgroup.
type Peer struct {
	ID       uint64
	Subgroup int

	subHost *simnet.Host
	fedHost *simnet.Host

	// fedConfig is the FedAvg-layer member list most recently committed
	// to the subgroup log (Sec. V-A1). fedRaw holds the commit payload it
	// was decoded from, nil when a snapshot set it: the leader commits
	// the same members every 50 ms, and a repeat is not decoded again.
	fedConfig []uint64
	fedRaw    []byte
	joined    bool
	joinLoop  bool
	cfgLoop   bool

	det     *health.Detector
	detLoop bool

	// rtt tracks per-sender round-trip times observed from delivered raft
	// traffic; the AutoTune loop derives election timeout bands from it.
	rtt *health.RTTStats

	// Continuous-churn control plane state (see churn.go).
	//
	// model is the peer's local model vector (what a graceful handoff
	// transfers through the checkpoint wire kind). inherited holds a
	// model checkpoint received from a gracefully departing co-member.
	// dir is this peer's replica of the peer directory; it is mutated
	// only by directory entries committed on the FedAvg-layer log, so
	// every replica is a pure function of that log. departing marks a
	// peer whose departure protocol is in flight.
	model     []float64
	inherited []float64
	dir       *directory.Directory
	departing bool
}

// Down reports whether the peer has crashed.
func (p *Peer) Down() bool { return p.subHost.Down() }

// Joined reports whether the peer currently considers itself a member of
// the FedAvg layer (its addition committed and observed).
func (p *Peer) Joined() bool { return p.joined }

// SubStatus returns the peer's subgroup raft node status — the probe
// interface invariant checkers (internal/chaos) read.
func (p *Peer) SubStatus() raft.Status { return p.subHost.Node.Status() }

// FedStatus returns the peer's FedAvg-layer raft node status; ok is false
// when the peer has never had a FedAvg-layer node.
func (p *Peer) FedStatus() (raft.Status, bool) {
	if p.fedHost == nil {
		return raft.Status{}, false
	}
	return p.fedHost.Node.Status(), true
}

// IsSubgroupLeader reports whether the peer currently leads its subgroup.
func (p *Peer) IsSubgroupLeader() bool {
	return !p.Down() && p.subHost.Node.State() == raft.Leader
}

// System is a running two-layer Raft deployment on a simulator.
type System struct {
	Sim  *simnet.Sim
	opts Options

	subGroups []*simnet.Group
	fedGroup  *simnet.Group
	peers     map[uint64]*Peer
	bySub     [][]uint64

	events   []Event
	observer Observer

	healthTrans []HealthTransition
	lastSeen    map[uint64]map[uint64]simnet.Time

	// Continuous-churn control plane state (see churn.go). nextID is the
	// next unassigned peer id for AddPeer; seedFrames is the bootstrap
	// directory (the initial membership, part of configuration exactly
	// like raft's initial Peers list) every directory replica starts
	// from; pendingChurn counts admissions/departures in flight.
	nextID       uint64
	seedFrames   []byte
	pendingChurn int
}

// Observer receives raw role transitions from every raft node in the
// system — the probe interface the chaos harness (internal/chaos) uses to
// check election safety (at most one leader per term per group)
// continuously, independent of the event timeline the system itself
// records. The callbacks run synchronously on the simulation goroutine
// and must not mutate the system.
type Observer struct {
	// SubgroupState fires on every role/term/leader change of a peer's
	// subgroup raft node.
	SubgroupState func(peer uint64, subgroup int, st raft.State, term, leader uint64)
	// FedState fires on every role/term/leader change of a peer's
	// FedAvg-layer raft node.
	FedState func(peer uint64, st raft.State, term, leader uint64)
}

// SetObserver installs the probe callbacks. Call before Bootstrap so no
// transition is missed.
func (s *System) SetObserver(o Observer) { s.observer = o }

// New builds the system: subgroup Raft groups are created immediately;
// call Bootstrap to elect initial leaders and form the FedAvg layer.
func New(opts Options) (*System, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	s := &System{
		Sim:      simnet.New(),
		opts:     opts,
		peers:    make(map[uint64]*Peer),
		lastSeen: make(map[uint64]map[uint64]simnet.Time),
	}
	// Telemetry timestamps follow the virtual clock: every event in a
	// seeded simulation happens at a reproducible virtual time.
	opts.Telemetry.SetClock(func() int64 { return int64(s.Sim.Now()) })
	id := uint64(1)
	for range opts.NumSubgroups {
		ids := make([]uint64, opts.SubgroupSize)
		for i := range ids {
			ids[i] = id
			id++
		}
		s.bySub = append(s.bySub, ids)
	}
	s.nextID = id
	// The bootstrap directory is configuration, not log: every directory
	// replica (present and future) starts from the same seed frames, so
	// replaying the FedAvg-layer log on top converges them (churn.go).
	s.seedFrames = s.buildSeedDirectory()
	for g, ids := range s.bySub {
		s.subGroups = append(s.subGroups, s.newGroup(fmt.Sprintf("subgroup-%d", g), opts.Seed*31+int64(g)))
		for _, pid := range ids {
			p, err := s.newPeer(pid)
			if err != nil {
				return nil, err
			}
			if err := s.addSubNode(p, g, kindInitial, ids); err != nil {
				return nil, err
			}
		}
	}
	s.fedGroup = s.newGroup("fedavg", opts.Seed*77)
	if opts.Profile.AutoTune() {
		s.startAutoTune()
	}
	return s, nil
}

// newGroup builds one simulated raft network on the system's latency
// model; under an auto-tuning profile every delivery is an RTT sample.
func (s *System) newGroup(name string, seed int64) *simnet.Group {
	g := simnet.NewGroup(s.Sim, name, s.opts.Topology, rand.New(rand.NewSource(seed)))
	if s.opts.Profile.AutoTune() {
		g.OnDeliver = func(m raft.Message, oneWay simnet.Duration) {
			s.observeRTT(m.To, m.From, oneWay)
		}
	}
	return g
}

// newPeer builds a peer with a fresh directory replica and, under an
// auto-tuning profile, an RTT tracker. addSubNode gives it a raft node
// and registers it.
func (s *System) newPeer(id uint64) (*Peer, error) {
	dir, err := directory.DecodeSnapshot(s.seedFrames)
	if err != nil {
		return nil, err
	}
	p := &Peer{ID: id, dir: dir}
	if s.opts.Profile.AutoTune() {
		p.rtt = health.NewRTTStats(0)
	}
	return p, nil
}

// nodeKind names one occasion on which the system builds a raft node.
// Each kind owns an RNG stream (Rng = Seed·stream + id), so a node
// rebuilt for a different reason never replays another incarnation's
// timeout draws, and every pinned seed replays unchanged.
type nodeKind struct {
	stream int64
	// fed marks FedAvg-layer nodes: their log carries no state machine
	// of this package's own to snapshot.
	fed bool
}

var (
	kindInitial    = nodeKind{stream: 1000}            // New, AddPeer
	kindFedNew     = nodeKind{stream: 2000, fed: true} // first FedAvg-layer join
	kindFedRestart = nodeKind{stream: 3000, fed: true} // rejoin after a crash, ReviveFedNode
	kindSubRestart = nodeKind{stream: 4000}            // RestartPeer
	kindHandoffSub = nodeKind{stream: 6000}            // ReplacePeer successor
	kindHandoffFed = nodeKind{stream: 6000, fed: true}
	kindShard      = nodeKind{stream: 7000} // split/merge re-homing
)

// raftConfig is the one recipe for every raft node in the system:
// the options' timers, the profile's protocol flags, the kind's RNG
// stream and, for subgroup nodes, log compaction with the latest
// FedAvg-layer configuration (the whole subgroup state machine,
// Sec. V-A1) as the snapshot. peers is nil for a node restarting from
// persisted state.
func (s *System) raftConfig(p *Peer, k nodeKind, peers []uint64) raft.Config {
	cfg := s.opts.Profile.Raft(raft.Config{
		ID:              p.ID,
		Peers:           peers,
		ElectionTickMin: s.opts.ElectionTickMin,
		ElectionTickMax: s.opts.ElectionTickMax,
		HeartbeatTick:   s.opts.HeartbeatTick,
		Rng:             rand.New(rand.NewSource(s.opts.Seed*k.stream + int64(p.ID))),
		Telemetry:       s.opts.Telemetry,
	})
	if !k.fed {
		cfg.SnapshotThreshold = snapshotThreshold
		cfg.SnapshotState = func() []byte {
			b, err := json.Marshal(fedConfigEntry{Members: p.fedConfig})
			if err != nil {
				return nil
			}
			return b
		}
	}
	return cfg
}

// addSubNode builds p's subgroup raft node over the given membership
// view, hosts it on subgroup g's network, registers the peer and wires
// its callbacks and, under a detector profile, its failure detector
// over the co-members. For a peer that already has a node (split/merge
// re-homing) the new host replaces the old one; the peer's single
// detector tick loop keeps running across the swap (it dereferences
// p.det each tick).
func (s *System) addSubNode(p *Peer, g int, k nodeKind, peers []uint64) error {
	node, err := raft.NewNode(s.raftConfig(p, k, peers))
	if err != nil {
		return err
	}
	host, err := s.subGroups[g].Add(node)
	if err != nil {
		return err
	}
	p.subHost, p.Subgroup = host, g
	s.peers[p.ID] = p
	s.wireSubgroupCallbacks(p)
	if s.opts.Profile.Detector() {
		return s.setupDetector(p, peers)
	}
	return nil
}

// resetVolatile clears what a reborn process cannot have — RTT history
// and detector verdicts — and re-arms the detector's tick loop.
func (s *System) resetVolatile(p *Peer) {
	if p.rtt != nil {
		p.rtt.Reset()
	}
	if p.det != nil {
		p.det.Reset()
		p.det.SetWatch(nil)
		s.scheduleDetectorTick(p)
	}
}

// observeRTT records one delivered message as an RTT sample for its
// receiver: on near-symmetric links twice the sampled one-way delay is
// the round trip the receiver would measure against that sender.
func (s *System) observeRTT(to, from uint64, oneWay simnet.Duration) {
	p := s.peers[to]
	if p == nil || p.rtt == nil {
		return
	}
	p.rtt.Observe(from, 2*int64(oneWay))
}

// startAutoTune arms the periodic health→raft feedback loop: every
// autoTuneInterval each live peer derives an election band from its
// observed per-sender RTT quantiles and rescales its subgroup and
// FedAvg-layer nodes' timers in place (health.Retune). Iteration
// is in ascending peer-ID order, so equal seeds retune identically.
func (s *System) startAutoTune() {
	// Keep the tuned floor above the heartbeat interval (raft rejects
	// min ≤ HeartbeatTick) and never below the stock LAN floor.
	floor := max(50, s.opts.HeartbeatTick+1)
	var loop func()
	loop = func() {
		for _, id := range s.PeerIDs() {
			p := s.peers[id]
			if p.Down() {
				continue
			}
			nodes := []*raft.Node{p.subHost.Node}
			if p.fedHost != nil && !p.fedHost.Down() {
				nodes = append(nodes, p.fedHost.Node)
			}
			health.Retune(p.rtt, floor, nodes...)
		}
		s.Sim.Schedule(autoTuneInterval, loop)
	}
	s.Sim.Schedule(autoTuneInterval, loop)
}

// Peer returns the peer with the given ID, or nil.
func (s *System) Peer(id uint64) *Peer { return s.peers[id] }

// SubgroupPeers returns the peer IDs of subgroup g.
func (s *System) SubgroupPeers(g int) []uint64 { return append([]uint64(nil), s.bySub[g]...) }

// PeerIDs returns every peer ID in ascending order — the deterministic
// iteration order fault campaigns require.
func (s *System) PeerIDs() []uint64 {
	out := make([]uint64, 0, len(s.peers))
	for id := range s.peers {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// NumSubgroups returns the subgroup count.
func (s *System) NumSubgroups() int { return len(s.bySub) }

// SubgroupNet exposes subgroup g's simulated network so fault campaigns
// can inject partitions, loss and delay inside one subgroup.
func (s *System) SubgroupNet(g int) *simnet.Group { return s.subGroups[g] }

// FedNet exposes the FedAvg layer's simulated network.
func (s *System) FedNet() *simnet.Group { return s.fedGroup }

// Events returns the recorded timeline.
func (s *System) Events() []Event { return append([]Event(nil), s.events...) }

func (s *System) record(kind EventKind, peer uint64, subgroup int) {
	s.events = append(s.events, Event{At: s.Sim.Now(), Kind: kind, Peer: peer, Subgroup: subgroup})
	s.opts.Telemetry.Counter("cluster/ev/" + string(kind)).Inc()
	s.opts.Telemetry.Trace("cluster/"+string(kind), peer, subgroup)
}

// SubgroupLeader returns the current leader peer ID of subgroup g (from
// the simulator's omniscient view), or raft.None.
func (s *System) SubgroupLeader(g int) uint64 { return s.subGroups[g].Leader() }

// FedAvgLeader returns the current FedAvg-layer leader, or raft.None.
func (s *System) FedAvgLeader() uint64 { return s.fedGroup.Leader() }

// FedAvgMembers returns the FedAvg leader's view of the layer membership,
// or nil when no leader exists.
func (s *System) FedAvgMembers() []uint64 {
	l := s.FedAvgLeader()
	if l == raft.None {
		return nil
	}
	return s.peers[l].fedHost.Node.Members()
}

// RoundGeometry is what a round driver reads off the control plane at a
// round boundary, in plain ints (this package does not import core).
// Entry i describes the i-th non-retired subgroup in ascending id order
// — the numbering core.Config.Sizes and core.RoundSpec use.
type RoundGeometry struct {
	// Subgroups[i] is the cluster subgroup id behind entry i.
	Subgroups []int
	// Sizes[i] is its admitted member count.
	Sizes []int
	// Leaders[i] is its raft leader's index among SubgroupPeers
	// (admission order), -1 while it has none.
	Leaders []int
	// FedLeader is the entry whose member leads the FedAvg layer, -1
	// while the layer has no leader.
	FedLeader int
}

// RoundGeometry reads the current geometry: admitted membership and the
// elected leaders of both layers.
func (s *System) RoundGeometry() RoundGeometry {
	geo := RoundGeometry{FedLeader: -1}
	fedSub := -1
	if p := s.peers[s.FedAvgLeader()]; p != nil {
		fedSub = p.Subgroup
	}
	for g, ids := range s.bySub {
		if len(ids) == 0 {
			continue // retired by a merge
		}
		i := len(geo.Sizes)
		geo.Subgroups = append(geo.Subgroups, g)
		geo.Sizes = append(geo.Sizes, len(ids))
		geo.Leaders = append(geo.Leaders, slices.Index(ids, s.SubgroupLeader(g)))
		if g == fedSub {
			geo.FedLeader = i
		}
	}
	return geo
}

// Bootstrap elects a leader in every subgroup, forms the FedAvg layer
// from those leaders, elects the FedAvg leader, and starts the periodic
// configuration commits. It returns an error if the system does not
// stabilize within limit.
func (s *System) Bootstrap(limit simnet.Duration) error {
	deadline := s.Sim.Now() + simnet.Time(limit)
	ok := s.Sim.RunWhileNot(func() bool {
		for g := range s.subGroups {
			if s.SubgroupLeader(g) == raft.None {
				return false
			}
		}
		return true
	}, deadline)
	if !ok {
		return fmt.Errorf("cluster: subgroup elections did not complete within %v ms", limit.Ms())
	}
	// Form the FedAvg layer from the elected subgroup leaders.
	var members []uint64
	for g := range s.subGroups {
		members = append(members, s.SubgroupLeader(g))
	}
	for _, id := range members {
		if err := s.createFedNode(s.peers[id], members); err != nil {
			return err
		}
		s.peers[id].joined = true
	}
	ok = s.Sim.RunWhileNot(func() bool { return s.FedAvgLeader() != raft.None }, deadline)
	if !ok {
		return fmt.Errorf("cluster: FedAvg election did not complete within %v ms", limit.Ms())
	}
	return nil
}

// createFedNode creates and registers a peer's FedAvg-layer raft node.
// members is the membership the node starts from; a joining peer passes
// the current members (not yet including itself). A peer whose previous
// FedAvg node crashed (it led before, then failed and restarted) revives
// that node from its persisted state instead.
func (s *System) createFedNode(p *Peer, members []uint64) error {
	if p.fedHost != nil {
		if p.fedHost.Down() {
			return p.fedHost.Restart(s.raftConfig(p, kindFedRestart, nil))
		}
		return nil
	}
	node, err := raft.NewNode(s.raftConfig(p, kindFedNew, members))
	if err != nil {
		return err
	}
	host, err := s.fedGroup.Add(node)
	if err != nil {
		return err
	}
	p.fedHost = host
	s.wireFedCallbacks(p)
	return nil
}

// fedConfigEntry is the payload subgroup leaders commit to their
// subgroup log.
type fedConfigEntry struct {
	Members []uint64 `json:"members"`
}

const fedConfigPrefix = "fedcfg:"

func (s *System) wireSubgroupCallbacks(p *Peer) {
	p.subHost.OnStateChange = func(st raft.State, term, leader uint64) {
		if s.observer.SubgroupState != nil {
			s.observer.SubgroupState(p.ID, p.Subgroup, st, term, leader)
		}
		if p.det != nil {
			s.updateWatch(p, st, leader)
		}
		if st != raft.Leader {
			return
		}
		s.record(EvSubgroupLeader, p.ID, p.Subgroup)
		// Post-leader-election callback (Sec. V-A1): join the FedAvg
		// layer and start committing its configuration.
		if !p.joined {
			s.startJoin(p)
		}
		s.scheduleConfigCommit(p)
		// Self-healing: a re-elected leader whose FedAvg-layer node is
		// still down revives it when the layer is leaderless — with no
		// FedAvg leader alive, the join protocol cannot commit the
		// membership change, so waiting on it would stall forever.
		if p.det != nil && p.fedHost != nil && p.fedHost.Down() && s.FedAvgLeader() == raft.None {
			if err := s.ReviveFedNode(p.ID); err == nil {
				s.record(EvFedRevived, p.ID, p.Subgroup)
			}
		}
	}
	p.subHost.OnCommit = func(e raft.Entry) {
		if e.Type != raft.EntryNormal || !bytes.HasPrefix(e.Data, []byte(fedConfigPrefix)) {
			return
		}
		raw := e.Data[len(fedConfigPrefix):]
		if p.fedRaw != nil && bytes.Equal(raw, p.fedRaw) {
			return
		}
		var cfg fedConfigEntry
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return
		}
		p.fedConfig = cfg.Members
		p.fedRaw = append(p.fedRaw[:0], raw...)
	}
	p.subHost.OnSnapshot = func(snap *raft.Snapshot) {
		// Restore the state machine (the FedAvg-layer configuration)
		// from a compacted log prefix.
		var cfg fedConfigEntry
		if err := json.Unmarshal(snap.Data, &cfg); err != nil {
			return
		}
		if len(cfg.Members) > 0 {
			p.fedConfig = cfg.Members
			p.fedRaw = nil
		}
	}
}

func (s *System) wireFedCallbacks(p *Peer) {
	p.fedHost.OnStateChange = func(st raft.State, term, leader uint64) {
		if s.observer.FedState != nil {
			s.observer.FedState(p.ID, st, term, leader)
		}
		if st == raft.Leader {
			s.record(EvFedAvgLeader, p.ID, p.Subgroup)
		}
	}
	p.fedHost.OnCommit = func(e raft.Entry) {
		switch e.Type {
		case raft.EntryConfChange:
			cc, err := raft.DecodeConfChange(e.Data)
			if err != nil {
				return
			}
			if cc.Add && cc.NodeID == p.ID && !p.joined {
				p.joined = true
				s.record(EvJoinedFedAvg, p.ID, p.Subgroup)
			}
		case raft.EntryNormal:
			// Directory updates ride the FedAvg-layer log as complete
			// KindDirectory wire frames (churn.go).
			s.applyDirectoryEntry(p, e.Data)
		}
	}
}

// scheduleConfigCommit periodically commits the FedAvg-layer membership
// to the subgroup log while p leads its subgroup and knows the layer.
func (s *System) scheduleConfigCommit(p *Peer) {
	commit := func() {
		if p.Down() || !p.IsSubgroupLeader() || p.fedHost == nil {
			return
		}
		cfg := fedConfigEntry{Members: p.fedHost.Node.Members()}
		b, err := json.Marshal(cfg)
		if err != nil {
			return
		}
		// Deposed since the check above: the next period's commit is
		// the new leader's.
		_ = p.subHost.Propose(append([]byte(fedConfigPrefix), b...))
	}
	if p.cfgLoop {
		return
	}
	p.cfgLoop = true
	var loop func()
	loop = func() {
		if p.Down() || !p.IsSubgroupLeader() {
			p.cfgLoop = false // a future re-election re-arms the loop
			return
		}
		commit()
		s.Sim.Schedule(configCommitInterval, loop)
	}
	loop()
}

// startJoin runs the join protocol: poll the known FedAvg members for a
// leader; when one responds, ask it to add us via a membership change.
// Retries every joinPollInterval until the addition commits.
func (s *System) startJoin(p *Peer) {
	if p.joinLoop {
		return
	}
	p.joinLoop = true
	var attempt func()
	attempt = func() {
		if p.Down() || p.joined || !p.IsSubgroupLeader() {
			p.joinLoop = false
			return
		}
		candidates := p.fedConfig
		if len(candidates) == 0 {
			// No committed configuration (fresh system): fall back to
			// asking all current subgroup leaders.
			for g := range s.subGroups {
				if l := s.SubgroupLeader(g); l != raft.None {
					candidates = append(candidates, l)
				}
			}
		}
		// One-way app-level request to each candidate; the one that is the
		// FedAvg leader proposes the change and answers with an accept
		// carrying the current membership (one-way latency each direction).
		// A live member that is not the leader answers with the leader it
		// follows, and the joiner asks that peer next unless this poll has
		// asked it already (the extended Raft paper's redirect, §8). So a
		// leader missing from the candidates — a stale configuration, or a
		// layer leader that has since lost its subgroup — is still found,
		// and a poll that reached the leader directly sends it nothing more.
		accepted := func(members []uint64) {
			s.sendApp(func() {
				if p.Down() || p.joined {
					return
				}
				_ = s.createFedNode(p, members)
			})
		}
		nextPoll := s.Sim.Now() + simnet.Time(joinPollInterval)
		var asked []uint64
		var ask func(id uint64)
		ask = func(id uint64) {
			if slices.Contains(asked, id) || p.Down() || p.joined || !p.IsSubgroupLeader() || s.Sim.Now() >= nextPoll {
				return
			}
			asked = append(asked, id)
			s.askLeader(s.fedGroup, id, raft.ConfChange{Add: true, NodeID: p.ID}, accepted, ask)
		}
		for _, c := range candidates {
			ask(c)
		}
		s.Sim.Schedule(joinPollInterval, attempt)
	}
	attempt()
}

// sendApp delivers an application-level (non-Raft) message after the
// one-way link latency.
func (s *System) sendApp(fn func()) {
	s.Sim.Schedule(s.opts.Latency, fn)
}

// askLeader sends peer id a request to propose one membership change in
// the raft group on net — the one road by which this package changes any
// group's membership. The request takes one link latency. A peer that
// is gone, down or not the leader on arrival drops it, and the caller's
// next poll asks whoever leads then; a live one that follows a leader
// also answers, when redirect is non-nil, by calling it with that
// leader's id one link latency later. A leader that accepts calls
// accepted (if non-nil) with the membership the change was proposed
// against. A leader that refuses with ErrConfChangePending is alive and
// will take the change as soon as what it is waiting for — its no-op, or
// the change before this one — commits, which is one round trip of its
// own group away; so the refusal travels back and the request is sent
// again, one link round trip after the first, instead of waiting out a
// joinPollInterval. That chain ends when the caller's next poll is due:
// the poll asks afresh, so each caller has at most one request in
// flight. (A zero-latency link has no round trip to wait out.)
func (s *System) askLeader(net *simnet.Group, id uint64, cc raft.ConfChange, accepted func(members []uint64), redirect func(leader uint64)) {
	nextPoll := s.Sim.Now() + simnet.Time(joinPollInterval)
	var request func()
	request = func() {
		h := net.Host(id)
		if h == nil || h.Down() {
			return
		}
		if h.Node.State() != raft.Leader {
			if l := h.Node.Leader(); redirect != nil && l != raft.None && l != id {
				s.sendApp(func() { redirect(l) })
			}
			return
		}
		members := h.Node.Members()
		switch err := h.ProposeConfChange(cc); {
		case err == nil:
			if accepted != nil {
				accepted(members)
			}
		case errors.Is(err, raft.ErrConfChangePending) && s.opts.Latency > 0 && s.Sim.Now() < nextPoll:
			s.sendApp(func() { s.sendApp(request) })
		}
	}
	s.sendApp(request)
}

// CrashPeer fails a peer: its subgroup host and (if present) its
// FedAvg-layer host stop immediately.
func (s *System) CrashPeer(id uint64) error {
	p := s.peers[id]
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %d", id)
	}
	p.subHost.Crash()
	if p.fedHost != nil {
		p.fedHost.Crash()
	}
	return nil
}

// RestartPeer revives a crashed peer from its persisted subgroup state:
// it rejoins its subgroup as a follower and catches up (Sec. III-C,
// "a crashed server [can] rejoin the cluster at any time"). Its FedAvg
// membership is only revived if it is elected subgroup leader again.
func (s *System) RestartPeer(id uint64) error {
	p := s.peers[id]
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %d", id)
	}
	if !p.Down() {
		return fmt.Errorf("cluster: peer %d is not down", id)
	}
	if err := p.subHost.Restart(s.raftConfig(p, kindSubRestart, nil)); err != nil {
		return err
	}
	// The restarted peer is a follower; if it previously joined the
	// FedAvg layer that membership only matters again once re-elected.
	p.joined = false
	s.resetVolatile(p)
	return nil
}

// ReviveFedNode restarts a live peer's crashed FedAvg-layer raft node
// from its persisted state without waiting for the peer to be re-elected
// subgroup leader. This is the disaster-recovery path for a FedAvg layer
// that lost a majority of its members at once — outside the paper's
// ≤ k−1 failure assumption, where the join protocol alone cannot make
// progress because no FedAvg leader survives to commit membership
// changes. The revived node rejoins as a follower with its durable
// term/vote/log intact; once the layer regains quorum, membership churn
// resumes through the normal join protocol. No-op for peers that never
// had a FedAvg-layer node or whose node is live.
func (s *System) ReviveFedNode(id uint64) error {
	p := s.peers[id]
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %d", id)
	}
	if p.Down() {
		return fmt.Errorf("cluster: peer %d is down", id)
	}
	if p.fedHost == nil || !p.fedHost.Down() {
		return nil
	}
	return p.fedHost.Restart(s.raftConfig(p, kindFedRestart, nil))
}

// WaitSubgroupLeader runs the simulation until subgroup g has a live
// leader different from exclude, returning its ID and the time, or an
// error at the deadline.
func (s *System) WaitSubgroupLeader(g int, exclude uint64, limit simnet.Duration) (uint64, simnet.Time, error) {
	deadline := s.Sim.Now() + simnet.Time(limit)
	ok := s.Sim.RunWhileNot(func() bool {
		l := s.SubgroupLeader(g)
		return l != raft.None && l != exclude
	}, deadline)
	if !ok {
		return raft.None, 0, fmt.Errorf("cluster: subgroup %d did not elect a new leader within %v ms", g, limit.Ms())
	}
	return s.SubgroupLeader(g), s.Sim.Now(), nil
}

// WaitJoined runs the simulation until peer id has joined the FedAvg
// layer (its membership change committed and observed).
func (s *System) WaitJoined(id uint64, limit simnet.Duration) (simnet.Time, error) {
	deadline := s.Sim.Now() + simnet.Time(limit)
	p := s.peers[id]
	if p == nil {
		return 0, fmt.Errorf("cluster: unknown peer %d", id)
	}
	ok := s.Sim.RunWhileNot(func() bool { return p.joined }, deadline)
	if !ok {
		return 0, fmt.Errorf("cluster: peer %d did not join the FedAvg layer within %v ms", id, limit.Ms())
	}
	return s.Sim.Now(), nil
}

// WaitFedAvgLeader runs the simulation until the FedAvg layer has a live
// leader different from exclude.
func (s *System) WaitFedAvgLeader(exclude uint64, limit simnet.Duration) (uint64, simnet.Time, error) {
	deadline := s.Sim.Now() + simnet.Time(limit)
	ok := s.Sim.RunWhileNot(func() bool {
		l := s.FedAvgLeader()
		return l != raft.None && l != exclude
	}, deadline)
	if !ok {
		return raft.None, 0, fmt.Errorf("cluster: FedAvg layer did not elect a new leader within %v ms", limit.Ms())
	}
	return s.FedAvgLeader(), s.Sim.Now(), nil
}

// FirstEventAfter returns the first recorded event of the given kind at
// or after t (optionally filtered to one subgroup with sub ≥ 0).
func (s *System) FirstEventAfter(t simnet.Time, kind EventKind, sub int) (Event, bool) {
	for _, e := range s.events {
		if e.At >= t && e.Kind == kind && (sub < 0 || e.Subgroup == sub) {
			return e, true
		}
	}
	return Event{}, false
}
