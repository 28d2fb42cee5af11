// Package raft is a from-scratch implementation of the Raft consensus
// algorithm (Ongaro & Ousterhout, USENIX ATC'14) covering the three
// subproblems the paper relies on: leader election with randomized
// timeouts U(T, 2T), log replication with the consistency check, and the
// safety restrictions (up-to-date-log voting rule, current-term-only
// commit), plus single-server cluster membership change — the mechanism
// by which a newly elected subgroup leader joins the FedAvg layer.
//
// The node is a pure, tick-driven state machine in the style of etcd/raft:
// time advances only through Tick(), inputs arrive only through Step(),
// and outputs (messages to send, newly committed entries, leadership
// changes) are collected through Ready(). Loop (loop.go) is the body of
// the loop around a node — what is done with a Ready, and in what order
// — written once for both of its owners: the discrete-event simulator
// (internal/simnet), where one tick is one virtual millisecond, and the
// daemon (cmd/p2pfl-node), where a time.Ticker sets the pace.
package raft

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/telemetry"
)

// State is the role of a Raft node (Fig. 2 of the paper).
type State int

const (
	// Follower responds to requests from leaders and candidates.
	Follower State = iota
	// Candidate is campaigning to become leader.
	Candidate
	// Leader handles all client requests and replicates the log.
	Leader
	// PreCandidate is probing for pre-votes before a real campaign
	// (Config.PreVote, §9.6 of Ongaro's thesis): the node's term and
	// vote are untouched until a quorum signals the probe would win.
	PreCandidate
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	case PreCandidate:
		return "pre-candidate"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// None is the nil node ID (no leader known / no vote cast).
const None uint64 = 0

// EntryType distinguishes application data from configuration changes.
type EntryType int

const (
	// EntryNormal carries application data.
	EntryNormal EntryType = iota
	// EntryConfChange carries a JSON-encoded ConfChange.
	EntryConfChange
	// EntryNoop is the empty entry a new leader appends to commit
	// entries from previous terms.
	EntryNoop
)

// Entry is one replicated log entry.
type Entry struct {
	Index uint64
	Term  uint64
	Type  EntryType
	Data  []byte
}

// ConfChange is a single-server membership change.
type ConfChange struct {
	Add    bool   `json:"add"` // true: add node; false: remove node
	NodeID uint64 `json:"node_id"`
}

// Encode serializes the change for an EntryConfChange payload.
func (cc ConfChange) Encode() []byte {
	b, err := json.Marshal(cc)
	if err != nil {
		panic(err) // marshalling two scalar fields cannot fail
	}
	return b
}

// DecodeConfChange parses an EntryConfChange payload.
func DecodeConfChange(data []byte) (ConfChange, error) {
	var cc ConfChange
	if err := json.Unmarshal(data, &cc); err != nil {
		return ConfChange{}, fmt.Errorf("raft: bad conf change: %w", err)
	}
	return cc, nil
}

// MsgType enumerates the Raft RPCs.
type MsgType int

const (
	// MsgVoteRequest is the RequestVote RPC.
	MsgVoteRequest MsgType = iota
	// MsgVoteResponse answers a RequestVote RPC.
	MsgVoteResponse
	// MsgAppend is the AppendEntries RPC (also the heartbeat).
	MsgAppend
	// MsgAppendResponse answers an AppendEntries RPC.
	MsgAppendResponse
	// MsgSnapshot is the InstallSnapshot RPC, sent when a follower's
	// next index has been compacted away (answered with MsgAppendResponse).
	MsgSnapshot
	// MsgPreVoteRequest probes whether a real RequestVote at Term (the
	// sender's term + 1) would win, without anyone changing state.
	MsgPreVoteRequest
	// MsgPreVoteResponse answers a pre-vote probe: Granted echoes the
	// probed term, a rejection carries the responder's current term.
	MsgPreVoteResponse
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgVoteRequest:
		return "RequestVote"
	case MsgVoteResponse:
		return "RequestVoteResp"
	case MsgAppend:
		return "AppendEntries"
	case MsgAppendResponse:
		return "AppendEntriesResp"
	case MsgSnapshot:
		return "InstallSnapshot"
	case MsgPreVoteRequest:
		return "PreVote"
	case MsgPreVoteResponse:
		return "PreVoteResp"
	default:
		return fmt.Sprintf("msg(%d)", int(t))
	}
}

// Message is one Raft RPC or response.
type Message struct {
	Type MsgType
	From uint64
	To   uint64
	Term uint64

	// MsgVoteRequest: candidate's log position (the voting restriction).
	LastLogIndex uint64
	LastLogTerm  uint64
	// MsgVoteResponse.
	Granted bool
	// MsgAppend.
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	Commit       uint64
	// MsgAppendResponse.
	Reject bool
	// Match carries the follower's last replicated index on success, or a
	// next-index hint on rejection.
	Match uint64
	// MsgSnapshot.
	Snapshot *Snapshot
}

// Snapshot is a compacted prefix of the log: everything up to and
// including Index is replaced by the application state in Data plus the
// membership in Peers. Followers that have fallen behind the compaction
// point receive it via the InstallSnapshot RPC.
type Snapshot struct {
	Index uint64
	Term  uint64
	Peers []uint64
	// Data is the opaque application state at Index (whatever the state
	// machine's SnapshotState callback captured).
	Data []byte
}

// Config parameterizes a node.
type Config struct {
	// ID is this node's non-zero identifier.
	ID uint64
	// Peers is the initial cluster membership, including ID. A joining
	// node that is not yet a member passes the current members without
	// its own ID and learns of its own addition through a ConfChange.
	Peers []uint64
	// ElectionTickMin/Max bound the randomized election timeout, in
	// ticks: each timer reset samples uniformly from [Min, Max). The
	// paper uses U(T, 2T), i.e. Min = T, Max = 2T.
	ElectionTickMin int
	ElectionTickMax int
	// HeartbeatTick is the leader's heartbeat interval in ticks.
	HeartbeatTick int
	// Rng drives timeout randomization; nil seeds from ID.
	Rng *rand.Rand

	// PreVote enables the Pre-Vote extension: a node whose election
	// timer fires probes the group with MsgPreVoteRequest first and only
	// increments its term once a quorum signals the real election would
	// win. This stops a partitioned minority (or a node behind flaky WAN
	// links) from endlessly bumping terms and deposing a healthy leader
	// on rejoin. Off by default: existing seeds replay unchanged.
	PreVote bool
	// CheckQuorum makes a leader step down after a full ElectionTickMax
	// of ticks without hearing AppendEntries responses from a quorum —
	// a leader on the minority side of a partition stops disrupting the
	// group instead of lingering. Off by default.
	CheckQuorum bool

	// SnapshotThreshold, when positive, auto-compacts the log once more
	// than this many applied entries have accumulated since the last
	// snapshot. SnapshotState, if set, captures the application state
	// stored in the snapshot (nil data otherwise).
	SnapshotThreshold int
	SnapshotState     func() []byte

	// Telemetry, when non-nil, receives raft/* counters and trace
	// events. Message counts are batched into Ready() so the tick/step
	// hot path stays free of per-message atomics.
	Telemetry *telemetry.Registry
}

func (c *Config) validate() error {
	if c.ID == None {
		return fmt.Errorf("raft: node ID must be non-zero")
	}
	if c.ElectionTickMin <= 0 || c.ElectionTickMax <= c.ElectionTickMin {
		return fmt.Errorf("raft: election ticks [%d,%d) invalid", c.ElectionTickMin, c.ElectionTickMax)
	}
	if c.HeartbeatTick <= 0 {
		return fmt.Errorf("raft: heartbeat tick %d invalid", c.HeartbeatTick)
	}
	if c.HeartbeatTick >= c.ElectionTickMin {
		return fmt.Errorf("raft: heartbeat tick %d must be < election tick min %d", c.HeartbeatTick, c.ElectionTickMin)
	}
	return nil
}

// Ready is the batch of outputs drained from a node after Tick/Step.
type Ready struct {
	// Messages must be sent to their destinations.
	Messages []Message
	// Committed are newly committed entries, in order, to apply to the
	// state machine. Conf changes have already been applied to the
	// node's own membership view.
	Committed []Entry
	// InstalledSnapshot, when non-nil, replaces the state machine: the
	// application must restore itself from its Data before applying
	// Committed (which only holds entries after the snapshot).
	InstalledSnapshot *Snapshot
	// State/Term/Leader snapshot the node after the batch.
	State  State
	Term   uint64
	Leader uint64
}

// Node is a single Raft participant.
type Node struct {
	id    uint64
	state State

	term     uint64
	votedFor uint64
	leader   uint64

	// log holds entries after the snapshot point: log[i] has raft index
	// snapIndex+i+1. A slot is written once, by the append that creates
	// it: Persist hands out views of this array (see persist.go), so
	// whatever shortens or rewrites the log moves it to a fresh one.
	log         []Entry
	snapIndex   uint64
	snapTerm    uint64
	snapshot    *Snapshot // latest snapshot (nil before any compaction)
	pendingSnap *Snapshot // installed snapshot awaiting Ready delivery
	commitIndex uint64
	applied     uint64

	peers map[uint64]bool // current configuration (voting members)
	// members is peers, sorted: what the node iterates so that emission
	// order is deterministic, and what Persist shares. It is replaced,
	// never edited in place, wherever peers changes (setMembers).
	members []uint64

	// Candidate state (also holds pre-votes while PreCandidate).
	votes map[uint64]bool

	// Leader state.
	nextIndex  map[uint64]uint64
	matchIndex map[uint64]uint64

	// Check-quorum state: peers heard from since the last quorum
	// renewal, and ticks since that renewal.
	active        map[uint64]bool
	quorumSilence int

	// Timers (in ticks).
	electionElapsed  int
	heartbeatElapsed int
	electionTimeout  int

	cfg Config
	rng *rand.Rand
	tel nodeTel

	msgs []Message
}

// nodeTel holds the node's pre-resolved metric handles. With no
// registry configured every handle is nil and updates are no-ops, so
// call sites stay unconditional.
type nodeTel struct {
	reg                *telemetry.Registry
	electionsStarted   *telemetry.Counter
	electionsWon       *telemetry.Counter
	termsAdvanced      *telemetry.Counter
	entriesAppended    *telemetry.Counter
	entriesCommitted   *telemetry.Counter
	snapshotsTaken     *telemetry.Counter
	snapshotsInstalled *telemetry.Counter
	msgsSent           *telemetry.Counter

	// WAN-profile handles, resolved only when the matching Config flag
	// is on so flag-off registries keep their exact metric set (the
	// equal-seed snapshot and golden-file contract).
	prevotesStarted *telemetry.Counter
	quorumStepdowns *telemetry.Counter
}

func newNodeTel(reg *telemetry.Registry) nodeTel {
	return nodeTel{
		reg:                reg,
		electionsStarted:   reg.Counter("raft/elections_started"),
		electionsWon:       reg.Counter("raft/elections_won"),
		termsAdvanced:      reg.Counter("raft/terms_advanced"),
		entriesAppended:    reg.Counter("raft/entries_appended"),
		entriesCommitted:   reg.Counter("raft/entries_committed"),
		snapshotsTaken:     reg.Counter("raft/snapshots_taken"),
		snapshotsInstalled: reg.Counter("raft/snapshots_installed"),
		msgsSent:           reg.Counter("raft/msgs_sent"),
	}
}

// NewNode creates a node from cfg.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(cfg.ID)))
	}
	n := &Node{
		id:         cfg.ID,
		state:      Follower,
		votedFor:   None,
		leader:     None,
		peers:      make(map[uint64]bool),
		nextIndex:  make(map[uint64]uint64),
		matchIndex: make(map[uint64]uint64),
		cfg:        cfg,
		rng:        rng,
		tel:        newNodeTel(cfg.Telemetry),
	}
	if cfg.PreVote {
		n.tel.prevotesStarted = cfg.Telemetry.Counter("raft/prevotes_started")
	}
	if cfg.CheckQuorum {
		n.tel.quorumStepdowns = cfg.Telemetry.Counter("raft/quorum_stepdowns")
	}
	for _, p := range cfg.Peers {
		if p == None {
			return nil, fmt.Errorf("raft: peer ID must be non-zero")
		}
		n.peers[p] = true
	}
	n.setMembers()
	n.resetElectionTimeout()
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() uint64 { return n.id }

// State returns the node's current role.
func (n *Node) State() State { return n.state }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the node's view of the current leader (None if unknown).
func (n *Node) Leader() uint64 { return n.leader }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// Members returns the current configuration, sorted, in a slice the
// caller owns.
func (n *Node) Members() []uint64 { return slices.Clone(n.members) }

// setMembers rebuilds members from peers into a fresh slice, so one
// captured earlier (a Persist image, a snapshot) keeps its contents.
func (n *Node) setMembers() {
	out := make([]uint64, 0, len(n.peers))
	for p := range n.peers {
		out = append(out, p)
	}
	slices.Sort(out)
	n.members = out
}

// LastIndex returns the index of the last entry in the log (including
// the compacted prefix) — exposed for invariant probes (internal/chaos).
func (n *Node) LastIndex() uint64 { return n.lastIndex() }

func (n *Node) lastIndex() uint64 { return n.snapIndex + uint64(len(n.log)) }

func (n *Node) termAt(i uint64) uint64 {
	if i == n.snapIndex {
		return n.snapTerm
	}
	if i <= n.snapIndex || i > n.lastIndex() {
		return 0
	}
	return n.log[i-n.snapIndex-1].Term
}

func (n *Node) entryAt(i uint64) Entry { return n.log[i-n.snapIndex-1] }

func (n *Node) resetElectionTimeout() {
	span := n.cfg.ElectionTickMax - n.cfg.ElectionTickMin
	n.electionTimeout = n.cfg.ElectionTickMin + n.rng.Intn(span)
	n.electionElapsed = 0
}

func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

// Tick advances the node's logical clock by one tick (the caller defines
// the tick duration; the experiments use 1 ms).
func (n *Node) Tick() {
	if n.state == Leader {
		n.heartbeatElapsed++
		if n.cfg.CheckQuorum {
			n.quorumSilence++
			if n.quorumSilence >= n.cfg.ElectionTickMax {
				// A full maximum election timeout without hearing a
				// quorum: any majority partition has had time to elect a
				// replacement, so this leadership is (at best) stale.
				n.tel.quorumStepdowns.Inc()
				n.tel.reg.Trace("raft/quorum_stepdown", n.id, -1, telemetry.F("term", int64(n.term)))
				n.becomeFollower(n.term, None)
				return
			}
		}
		if n.heartbeatElapsed >= n.cfg.HeartbeatTick {
			n.heartbeatElapsed = 0
			n.broadcastAppend()
		}
		return
	}
	n.electionElapsed++
	if n.electionElapsed >= n.electionTimeout {
		n.hup()
	}
}

// Campaign forces an immediate election, bypassing pre-vote (used by
// tests, bootstrap helpers and proactive failure-detector campaigns;
// normal operation goes through the election timeout and hup).
func (n *Node) Campaign() { n.campaign() }

// hup is the election-timeout path: straight to a real campaign, or
// through a pre-vote probe when Config.PreVote is set.
func (n *Node) hup() {
	if n.cfg.PreVote {
		n.preCampaign()
		return
	}
	n.campaign()
}

// preCampaign probes the group for pre-votes at term+1 without touching
// the node's own term or vote. Only a quorum of grants escalates to a
// real campaign — a node that cannot reach a quorum (partitioned
// minority, flaky WAN link) keeps probing harmlessly at its own term.
func (n *Node) preCampaign() {
	if !n.peers[n.id] {
		// Not (yet) a voting member: keep waiting (see campaign).
		n.resetElectionTimeout()
		return
	}
	n.state = PreCandidate
	n.leader = None
	n.votes = map[uint64]bool{n.id: true}
	n.resetElectionTimeout()
	n.tel.prevotesStarted.Inc()
	n.tel.reg.Trace("raft/prevote_started", n.id, -1, telemetry.F("term", int64(n.term+1)))
	if len(n.votes) >= n.quorum() {
		// Single-node cluster: the probe trivially wins.
		n.campaign()
		return
	}
	// Sorted iteration keeps emission order deterministic (see campaign).
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		n.send(Message{
			Type:         MsgPreVoteRequest,
			To:           p,
			Term:         n.term + 1,
			LastLogIndex: n.lastIndex(),
			LastLogTerm:  n.termAt(n.lastIndex()),
		})
	}
}

func (n *Node) campaign() {
	if !n.peers[n.id] {
		// Not (yet) a voting member: keep waiting. A joining node must
		// not disrupt the group it wants to join.
		n.resetElectionTimeout()
		return
	}
	n.state = Candidate
	n.term++
	n.votedFor = n.id
	n.leader = None
	n.votes = map[uint64]bool{n.id: true}
	n.resetElectionTimeout()
	n.tel.electionsStarted.Inc()
	n.tel.termsAdvanced.Inc()
	n.tel.reg.Trace("raft/election_started", n.id, -1, telemetry.F("term", int64(n.term)))
	if len(n.votes) >= n.quorum() {
		// Single-node cluster.
		n.becomeLeader()
		return
	}
	// Iterate in sorted order so the emitted message order is identical
	// across runs — the discrete-event simulator delivers same-time events
	// in schedule order, and deterministic replay (internal/chaos) needs
	// byte-for-byte identical runs from identical seeds.
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		n.send(Message{
			Type:         MsgVoteRequest,
			To:           p,
			Term:         n.term,
			LastLogIndex: n.lastIndex(),
			LastLogTerm:  n.termAt(n.lastIndex()),
		})
	}
}

func (n *Node) becomeFollower(term, leader uint64) {
	n.state = Follower
	if term > n.term {
		n.term = term
		n.votedFor = None
		n.tel.termsAdvanced.Inc()
	}
	n.leader = leader
	n.votes = nil
	n.active = nil
	n.quorumSilence = 0
	n.resetElectionTimeout()
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.leader = n.id
	n.heartbeatElapsed = 0
	n.nextIndex = make(map[uint64]uint64)
	n.matchIndex = make(map[uint64]uint64)
	for p := range n.peers {
		n.nextIndex[p] = n.lastIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.id] = n.lastIndex()
	if n.cfg.CheckQuorum {
		// A fresh leader starts with a silent clock at zero: it just
		// heard from a quorum of voters.
		n.active = make(map[uint64]bool)
		n.quorumSilence = 0
	}
	n.tel.electionsWon.Inc()
	n.tel.reg.Trace("raft/leader_elected", n.id, -1, telemetry.F("term", int64(n.term)))
	// Append a no-op so entries from previous terms commit (Sec. 5.4.2 of
	// the Raft paper; Sec. III-C3 of the reproduced paper).
	n.appendEntry(Entry{Type: EntryNoop})
	n.broadcastAppend()
}

func (n *Node) appendEntry(e Entry) {
	e.Index = n.lastIndex() + 1
	e.Term = n.term
	n.log = append(n.log, e)
	n.tel.entriesAppended.Inc()
	n.matchIndex[n.id] = n.lastIndex()
	n.maybeCommit()
}

// Propose appends a client command to the leader's log. ErrNotLeader is
// returned on non-leaders; the caller should redirect to Leader().
func (n *Node) Propose(data []byte) error {
	if n.state != Leader {
		return ErrNotLeader
	}
	n.appendEntry(Entry{Type: EntryNormal, Data: data})
	n.broadcastAppend()
	return nil
}

// ProposeConfChange appends a single-server membership change. Two
// majorities of configurations one server apart always intersect; those
// of configurations two apart need not. So the leader admits a change
// only when its configuration is settled: it has committed an entry of
// its own term — its no-op, which commits every change it inherited or
// proves it lost (Ongaro, raft-dev 2015, "bug in single-server
// membership changes") — and no conf change in its log awaits being
// applied. Otherwise it returns ErrConfChangePending and appends
// nothing; the caller asks again (hashicorp/raft enforces the same pair
// in configurationChangeChIfStable).
func (n *Node) ProposeConfChange(cc ConfChange) error {
	if n.state != Leader {
		return ErrNotLeader
	}
	if cc.NodeID == None {
		return fmt.Errorf("raft: conf change with zero node ID")
	}
	if n.termAt(n.commitIndex) != n.term {
		return ErrConfChangePending
	}
	for i := n.applied + 1; i <= n.lastIndex(); i++ {
		if n.entryAt(i).Type == EntryConfChange {
			return ErrConfChangePending
		}
	}
	n.appendEntry(Entry{Type: EntryConfChange, Data: cc.Encode()})
	n.broadcastAppend()
	return nil
}

// ErrNotLeader is returned by proposals on non-leader nodes.
var ErrNotLeader = fmt.Errorf("raft: not the leader")

// ErrConfChangePending is returned by ProposeConfChange while the
// leader's configuration is not settled.
var ErrConfChangePending = fmt.Errorf("raft: a configuration change is pending")

// ElectionTicks returns the current [min, max) election timeout band.
func (n *Node) ElectionTicks() (min, max int) {
	return n.cfg.ElectionTickMin, n.cfg.ElectionTickMax
}

// SetElectionTicks retunes the election timeout band at runtime (the
// self-tuning feedback loop from internal/health RTT quantiles). The
// currently armed timeout is rescaled proportionally into the new band
// — no rng draw, so retuning never perturbs the deterministic-replay
// rng stream. Heartbeat and snapshot config are untouched.
func (n *Node) SetElectionTicks(min, max int) error {
	if min <= n.cfg.HeartbeatTick {
		return fmt.Errorf("raft: election tick min %d must be > heartbeat tick %d", min, n.cfg.HeartbeatTick)
	}
	if max <= min {
		return fmt.Errorf("raft: election ticks [%d,%d) invalid", min, max)
	}
	if min == n.cfg.ElectionTickMin && max == n.cfg.ElectionTickMax {
		return nil
	}
	oldMin, oldSpan := n.cfg.ElectionTickMin, n.cfg.ElectionTickMax-n.cfg.ElectionTickMin
	frac := n.electionTimeout - oldMin
	if frac < 0 {
		frac = 0
	}
	n.cfg.ElectionTickMin, n.cfg.ElectionTickMax = min, max
	n.electionTimeout = min + frac*(max-min)/oldSpan
	if n.electionTimeout >= max {
		n.electionTimeout = max - 1
	}
	return nil
}

func (n *Node) send(m Message) {
	m.From = n.id
	n.msgs = append(n.msgs, m)
}

func (n *Node) broadcastAppend() {
	// Sorted iteration keeps emission order deterministic (see campaign).
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(to uint64) {
	next := n.nextIndex[to]
	if next == 0 {
		next = 1
	}
	if next <= n.snapIndex {
		// The follower needs entries that were compacted away: ship the
		// snapshot instead (InstallSnapshot RPC).
		n.send(Message{Type: MsgSnapshot, To: to, Term: n.term, Snapshot: n.snapshot})
		return
	}
	prev := next - 1
	var entries []Entry
	if next <= n.lastIndex() {
		entries = append(entries, n.log[next-n.snapIndex-1:]...)
	}
	n.send(Message{
		Type:         MsgAppend,
		To:           to,
		Term:         n.term,
		PrevLogIndex: prev,
		PrevLogTerm:  n.termAt(prev),
		Entries:      entries,
		Commit:       n.commitIndex,
	})
}

// Step feeds one inbound message into the state machine.
func (n *Node) Step(m Message) error {
	if m.Term > n.term {
		// Newer term always demotes — except for the pre-vote exchange,
		// whose whole point is to probe future terms without moving
		// anyone's term. A pre-vote request carries the prober's term+1
		// but changes no state here; a granted pre-vote response echoes
		// the probed term back without establishing it. Only a *rejected*
		// pre-vote response with a higher term is real evidence of a
		// newer epoch (the responder told us its actual term).
		switch {
		case m.Type == MsgPreVoteRequest:
			// Answered at our own term; see handlePreVoteRequest.
		case m.Type == MsgPreVoteResponse && m.Granted:
			// Echo of our own probe at term+1; see handlePreVoteResponse.
		default:
			// For append RPCs the sender is the leader of that term; vote
			// requests leave the leader unknown.
			leader := None
			if m.Type == MsgAppend {
				leader = m.From
			}
			n.becomeFollower(m.Term, leader)
		}
	}
	switch m.Type {
	case MsgVoteRequest:
		n.handleVoteRequest(m)
	case MsgVoteResponse:
		n.handleVoteResponse(m)
	case MsgAppend:
		n.handleAppend(m)
	case MsgAppendResponse:
		n.handleAppendResponse(m)
	case MsgSnapshot:
		n.handleSnapshot(m)
	case MsgPreVoteRequest:
		n.handlePreVoteRequest(m)
	case MsgPreVoteResponse:
		n.handlePreVoteResponse(m)
	default:
		return fmt.Errorf("raft: unknown message type %v", m.Type)
	}
	return nil
}

// handlePreVoteRequest answers a pre-vote probe without changing any
// local state. The grant rule is the RequestVote rule plus leader
// stickiness: while we believe a leader exists and our own election
// timer has not expired, the probe is refused — a healthy leader must
// not be deposed by a rejoining minority node's backlog of timeouts.
func (n *Node) handlePreVoteRequest(m Message) {
	granted := m.Term >= n.term &&
		n.state != Leader &&
		(n.leader == None || n.electionElapsed >= n.cfg.ElectionTickMin) &&
		n.logUpToDate(m.LastLogIndex, m.LastLogTerm)
	if granted {
		// Echo the probed term so the prober can match responses to the
		// campaign it is considering. Nothing is persisted: unlike a real
		// vote, a pre-vote is not a promise.
		n.send(Message{Type: MsgPreVoteResponse, To: m.From, Term: m.Term, Granted: true})
		return
	}
	n.send(Message{Type: MsgPreVoteResponse, To: m.From, Term: n.term, Granted: false})
}

// handlePreVoteResponse collects grants; a quorum escalates to a real
// campaign (which bumps the term exactly once, for the whole probe round).
func (n *Node) handlePreVoteResponse(m Message) {
	if n.state != PreCandidate {
		return
	}
	if !m.Granted {
		// Step's guard already demoted us on a rejection from a newer
		// term; a same/older-term rejection just means no grant.
		return
	}
	if m.Term != n.term+1 {
		return // stale echo from an earlier probe round
	}
	if n.peers[m.From] {
		n.votes[m.From] = true
		if len(n.votes) >= n.quorum() {
			n.campaign()
		}
	}
}

// noteActive records quorum contact for check-quorum: once a majority
// of peers (counting the leader itself) has responded since the last
// renewal, the silence clock restarts.
func (n *Node) noteActive(from uint64) {
	if n.state != Leader || !n.cfg.CheckQuorum {
		return
	}
	if !n.peers[from] {
		return
	}
	n.active[from] = true
	count := 1 // self
	for p := range n.active {
		if p != n.id {
			count++
		}
	}
	if count >= n.quorum() {
		n.quorumSilence = 0
		clear(n.active)
	}
}

func (n *Node) handleVoteRequest(m Message) {
	granted := false
	if m.Term == n.term && (n.votedFor == None || n.votedFor == m.From) && n.logUpToDate(m.LastLogIndex, m.LastLogTerm) {
		granted = true
		n.votedFor = m.From
		n.resetElectionTimeout()
	}
	n.send(Message{Type: MsgVoteResponse, To: m.From, Term: n.term, Granted: granted})
}

// logUpToDate implements the election restriction: the candidate's log is
// at least as up-to-date as the voter's (Sec. 5.4.1).
func (n *Node) logUpToDate(lastIndex, lastTerm uint64) bool {
	myTerm := n.termAt(n.lastIndex())
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= n.lastIndex()
}

func (n *Node) handleVoteResponse(m Message) {
	if n.state != Candidate || m.Term != n.term {
		return
	}
	if m.Granted && n.peers[m.From] {
		n.votes[m.From] = true
		if len(n.votes) >= n.quorum() {
			n.becomeLeader()
		}
	}
}

func (n *Node) handleAppend(m Message) {
	if m.Term < n.term {
		n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Reject: true})
		return
	}
	// Valid leader for our term.
	if n.state != Follower || n.leader != m.From {
		n.becomeFollower(m.Term, m.From)
	} else {
		n.resetElectionTimeout()
	}
	// Consistency check. A prev point inside our compacted prefix is
	// fine by definition (committed entries never diverge) but we can
	// only resume from the snapshot index.
	if m.PrevLogIndex < n.snapIndex {
		n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Reject: true, Match: n.snapIndex})
		return
	}
	if m.PrevLogIndex > n.lastIndex() || n.termAt(m.PrevLogIndex) != m.PrevLogTerm {
		hint := n.lastIndex()
		if m.PrevLogIndex < hint {
			hint = m.PrevLogIndex
		}
		if hint > 0 {
			hint--
		}
		if hint < n.snapIndex {
			hint = n.snapIndex
		}
		n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Reject: true, Match: hint})
		return
	}
	// Append, truncating conflicts (same index, different term).
	appended := int64(0)
	for _, e := range m.Entries {
		switch {
		case e.Index <= n.snapIndex:
			// Already compacted: committed entries never conflict.
		case e.Index <= n.lastIndex() && n.termAt(e.Index) == e.Term:
			// Already have it.
		case e.Index <= n.lastIndex():
			// Conflict: truncate and append. The slot at e.Index may be
			// visible through a Persist image, so the kept prefix is
			// clipped and the append moves it to a fresh array instead
			// of overwriting the slot in place.
			n.log = append(slices.Clip(n.log[:e.Index-n.snapIndex-1]), e)
			appended++
		default:
			n.log = append(n.log, e)
			appended++
		}
	}
	if appended > 0 {
		n.tel.entriesAppended.Add(appended)
	}
	// Advance commit index.
	last := m.PrevLogIndex + uint64(len(m.Entries))
	if m.Commit > n.commitIndex {
		c := m.Commit
		if last < c {
			c = last
		}
		if c > n.commitIndex {
			n.commitIndex = c
		}
	}
	n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Match: last})
}

func (n *Node) handleAppendResponse(m Message) {
	if n.state != Leader || m.Term != n.term {
		return
	}
	// Even a rejection proves the follower is alive and acknowledges our
	// term — that is all check-quorum needs.
	n.noteActive(m.From)
	if m.Reject {
		// Back up using the follower's hint and retry.
		next := m.Match + 1
		if next < 1 {
			next = 1
		}
		if next < n.nextIndex[m.From] {
			n.nextIndex[m.From] = next
		} else if n.nextIndex[m.From] > 1 {
			n.nextIndex[m.From]--
		}
		n.sendAppend(m.From)
		return
	}
	if m.Match > n.matchIndex[m.From] {
		n.matchIndex[m.From] = m.Match
	}
	if n.nextIndex[m.From] < m.Match+1 {
		n.nextIndex[m.From] = m.Match + 1
	}
	n.maybeCommit()
	// Keep pushing if the follower is still behind.
	if n.nextIndex[m.From] <= n.lastIndex() {
		n.sendAppend(m.From)
	}
}

// handleSnapshot installs a leader's snapshot (InstallSnapshot RPC).
func (n *Node) handleSnapshot(m Message) {
	if m.Term < n.term || m.Snapshot == nil {
		n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Reject: true})
		return
	}
	if n.state != Follower || n.leader != m.From {
		n.becomeFollower(m.Term, m.From)
	} else {
		n.resetElectionTimeout()
	}
	s := m.Snapshot
	if s.Index <= n.commitIndex {
		// Stale snapshot: we already have everything in it.
		n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Match: n.commitIndex})
		return
	}
	snap := &Snapshot{Index: s.Index, Term: s.Term, Peers: append([]uint64(nil), s.Peers...), Data: append([]byte(nil), s.Data...)}
	n.snapIndex, n.snapTerm = snap.Index, snap.Term
	n.snapshot = snap
	n.pendingSnap = snap
	n.log = nil
	n.commitIndex = snap.Index
	n.applied = snap.Index
	n.peers = make(map[uint64]bool, len(snap.Peers))
	for _, p := range snap.Peers {
		n.peers[p] = true
	}
	n.setMembers()
	n.tel.snapshotsInstalled.Inc()
	n.tel.reg.Trace("raft/snapshot_installed", n.id, -1, telemetry.F("index", int64(snap.Index)))
	n.send(Message{Type: MsgAppendResponse, To: m.From, Term: n.term, Match: snap.Index})
}

// Compact discards the log up to and including index (which must be
// applied), recording a snapshot with the given application state. The
// paper's two-layer system commits FedAvg-layer configurations
// periodically and forever, so unbounded logs are compacted this way.
func (n *Node) Compact(index uint64, data []byte) error {
	if index <= n.snapIndex {
		return fmt.Errorf("raft: index %d already compacted (snapshot at %d)", index, n.snapIndex)
	}
	if index > n.applied {
		return fmt.Errorf("raft: cannot compact unapplied index %d (applied %d)", index, n.applied)
	}
	term := n.termAt(index)
	tail := make([]Entry, n.lastIndex()-index)
	copy(tail, n.log[index-n.snapIndex-1+1:])
	n.log = tail
	n.snapIndex, n.snapTerm = index, term
	n.snapshot = &Snapshot{Index: index, Term: term, Peers: n.Members(), Data: append([]byte(nil), data...)}
	n.tel.snapshotsTaken.Inc()
	return nil
}

// SnapshotIndex returns the current compaction point (0 if none).
func (n *Node) SnapshotIndex() uint64 { return n.snapIndex }

// maybeCommit advances commitIndex to the highest index replicated on a
// quorum whose entry is from the current term (the Sec. 5.4.2 rule).
func (n *Node) maybeCommit() {
	if n.state != Leader {
		return
	}
	for idx := n.lastIndex(); idx > n.commitIndex; idx-- {
		if n.termAt(idx) != n.term {
			break
		}
		count := 0
		for p := range n.peers {
			if p == n.id {
				if n.lastIndex() >= idx {
					count++
				}
				continue
			}
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commitIndex = idx
			break
		}
	}
}

// Ready drains the node's pending outputs: outbound messages and newly
// committed entries (with conf changes applied to the membership view).
func (n *Node) Ready() Ready {
	// Auto-compaction runs before draining newly committed entries, so it
	// only ever covers entries handed to the driver in earlier batches —
	// which the driver has already applied to the state machine. Running
	// it after the drain would stamp the snapshot with the new applied
	// index while SnapshotState() still reflects the pre-batch state, and
	// a follower installed from that snapshot would silently lose the
	// batch.
	if n.cfg.SnapshotThreshold > 0 && n.applied-n.snapIndex > uint64(n.cfg.SnapshotThreshold) {
		var data []byte
		if n.cfg.SnapshotState != nil {
			data = n.cfg.SnapshotState()
		}
		// Compact cannot fail here: applied > snapIndex is guaranteed.
		_ = n.Compact(n.applied, data)
	}
	rd := Ready{State: n.state, Term: n.term, Leader: n.leader}
	rd.Messages = n.msgs
	n.msgs = nil
	if len(rd.Messages) > 0 {
		n.tel.msgsSent.Add(int64(len(rd.Messages)))
	}
	if n.pendingSnap != nil {
		rd.InstalledSnapshot = n.pendingSnap
		n.pendingSnap = nil
	}
	for n.applied < n.commitIndex {
		n.applied++
		e := n.entryAt(n.applied)
		if e.Type == EntryConfChange {
			if cc, err := DecodeConfChange(e.Data); err == nil {
				n.applyConfChange(cc)
			}
		}
		rd.Committed = append(rd.Committed, e)
	}
	if len(rd.Committed) > 0 {
		n.tel.entriesCommitted.Add(int64(len(rd.Committed)))
	}
	return rd
}

func (n *Node) applyConfChange(cc ConfChange) {
	if cc.Add {
		if !n.peers[cc.NodeID] {
			n.peers[cc.NodeID] = true
			n.setMembers()
			if n.state == Leader {
				n.nextIndex[cc.NodeID] = n.lastIndex() + 1
				n.matchIndex[cc.NodeID] = 0
				n.sendAppend(cc.NodeID)
			}
		}
		return
	}
	delete(n.peers, cc.NodeID)
	n.setMembers()
	if cc.NodeID == n.id && n.state == Leader {
		// A leader that applies its own removal steps down; otherwise
		// its heartbeats would suppress elections among the remaining
		// members forever.
		n.becomeFollower(n.term, None)
		return
	}
	if n.state == Leader {
		delete(n.nextIndex, cc.NodeID)
		delete(n.matchIndex, cc.NodeID)
		n.maybeCommit() // quorum may have shrunk
	}
}

// Status is a point-in-time diagnostic snapshot of a node.
type Status struct {
	ID            uint64
	State         State
	Term          uint64
	Leader        uint64
	CommitIndex   uint64
	Applied       uint64
	LastIndex     uint64
	SnapshotIndex uint64
	Members       []uint64
}

// Status returns the node's current diagnostic snapshot.
func (n *Node) Status() Status {
	return Status{
		ID:            n.id,
		State:         n.state,
		Term:          n.term,
		Leader:        n.leader,
		CommitIndex:   n.commitIndex,
		Applied:       n.applied,
		LastIndex:     n.lastIndex(),
		SnapshotIndex: n.snapIndex,
		Members:       n.Members(),
	}
}

// HasPending reports whether the node has undrained outputs; Loop.Pump
// uses it to know when to call Ready.
func (n *Node) HasPending() bool {
	return len(n.msgs) > 0 || n.applied < n.commitIndex
}

// Log returns a copy of the node's log (for tests and debugging).
func (n *Node) Log() []Entry {
	out := make([]Entry, len(n.log))
	copy(out, n.log)
	return out
}
