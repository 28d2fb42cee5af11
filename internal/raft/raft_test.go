package raft

import (
	"errors"
	"math/rand"
	"testing"
)

// cluster is a lockstep test harness: ticks all nodes, then delivers all
// pending messages instantly until quiescent. Timing-sensitive behaviour
// (latency, staggered delivery) is exercised in internal/simnet.
type cluster struct {
	t         *testing.T
	nodes     map[uint64]*Node
	down      map[uint64]bool
	committed map[uint64][]Entry
	dropFrom  map[uint64]bool // messages from these nodes are dropped
	dropTo    map[uint64]bool // messages to these nodes are dropped
}

func newCluster(t *testing.T, ids ...uint64) *cluster {
	t.Helper()
	return newClusterCfg(t, nil, ids...)
}

// newClusterCfg builds a cluster whose node configs are post-processed
// by mutate — the hook the WAN-feature tests (pre-vote, check-quorum)
// use to arm flags without duplicating the harness.
func newClusterCfg(t *testing.T, mutate func(*Config), ids ...uint64) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		nodes:     make(map[uint64]*Node),
		down:      make(map[uint64]bool),
		committed: make(map[uint64][]Entry),
		dropFrom:  make(map[uint64]bool),
		dropTo:    make(map[uint64]bool),
	}
	for _, id := range ids {
		cfg := Config{
			ID:              id,
			Peers:           ids,
			ElectionTickMin: 10,
			ElectionTickMax: 20,
			HeartbeatTick:   2,
			Rng:             rand.New(rand.NewSource(int64(id) * 7)),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = n
	}
	return c
}

// isolate cuts a node off in both directions (a symmetric partition of
// one); heal with c.dropFrom/dropTo deletes.
func (c *cluster) isolate(id uint64) {
	c.dropFrom[id] = true
	c.dropTo[id] = true
}

func (c *cluster) heal(id uint64) {
	delete(c.dropFrom, id)
	delete(c.dropTo, id)
}

// hop drains one node's outputs and delivers its messages one hop,
// leaving what the receivers answer undrained — the by-hand schedule
// control the membership-change tests need. It reports whether anything
// moved.
func (c *cluster) hop(id uint64) bool {
	n := c.nodes[id]
	if c.down[id] || !n.HasPending() {
		return false
	}
	rd := n.Ready()
	c.committed[id] = append(c.committed[id], rd.Committed...)
	moved := len(rd.Committed) > 0
	for _, m := range rd.Messages {
		if c.dropFrom[id] {
			continue
		}
		dst, ok := c.nodes[m.To]
		if !ok || c.down[m.To] || c.dropTo[m.To] {
			continue
		}
		if err := dst.Step(m); err != nil {
			c.t.Fatalf("step: %v", err)
		}
		moved = true
	}
	return moved
}

// flush delivers all pending messages until no node has output.
func (c *cluster) flush() {
	for moved := true; moved; {
		moved = false
		for id := range c.nodes {
			if c.hop(id) {
				moved = true
			}
		}
	}
}

// elect makes node id campaign on a quiet cluster and returns it as the
// leader, its no-op committed and applied everywhere reachable.
func (c *cluster) elect(id uint64) *Node {
	c.t.Helper()
	n := c.nodes[id]
	n.Campaign()
	c.flush()
	if n.State() != Leader {
		c.t.Fatalf("node %d did not win its election", id)
	}
	return n
}

// run advances all live nodes by `ticks` ticks, flushing after each.
func (c *cluster) run(ticks int) {
	for i := 0; i < ticks; i++ {
		for id, n := range c.nodes {
			if !c.down[id] {
				n.Tick()
			}
		}
		c.flush()
	}
}

// leader returns the unique live leader, or nil.
func (c *cluster) leader() *Node {
	var lead *Node
	for id, n := range c.nodes {
		if c.down[id] || n.State() != Leader {
			continue
		}
		if lead != nil {
			// Two leaders may coexist transiently across terms but never
			// in the same term.
			if lead.Term() == n.Term() {
				c.t.Fatalf("two leaders in term %d", n.Term())
			}
			if n.Term() > lead.Term() {
				lead = n
			}
			continue
		}
		lead = n
	}
	return lead
}

func (c *cluster) waitLeader(maxTicks int) *Node {
	c.t.Helper()
	for i := 0; i < maxTicks; i++ {
		c.run(1)
		if l := c.leader(); l != nil {
			return l
		}
	}
	c.t.Fatalf("no leader after %d ticks", maxTicks)
	return nil
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ID: 0, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2},
		{ID: 1, ElectionTickMin: 0, ElectionTickMax: 20, HeartbeatTick: 2},
		{ID: 1, ElectionTickMin: 10, ElectionTickMax: 10, HeartbeatTick: 2},
		{ID: 1, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 0},
		{ID: 1, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 15},
		{ID: 1, Peers: []uint64{0}, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2},
	}
	for i, cfg := range bad {
		if _, err := NewNode(cfg); err == nil {
			t.Fatalf("case %d: want config error", i)
		}
	}
}

func TestSingleNodeBecomesLeaderImmediately(t *testing.T) {
	c := newCluster(t, 1)
	l := c.waitLeader(50)
	if l.ID() != 1 {
		t.Fatalf("leader = %d", l.ID())
	}
}

func TestElectionElectsOneLeader(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	// All nodes agree on the leader.
	c.run(5)
	for id, n := range c.nodes {
		if n.Leader() != l.ID() {
			t.Fatalf("node %d thinks leader is %d, want %d", id, n.Leader(), l.ID())
		}
	}
}

func TestHeartbeatsSuppressElections(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	term := l.Term()
	c.run(200) // many election timeouts' worth of ticks
	if got := c.leader(); got == nil || got.ID() != l.ID() || got.Term() != term {
		t.Fatalf("leadership changed without failures: %v", got)
	}
}

func TestLeaderCrashTriggersReElection(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4, 5)
	l := c.waitLeader(100)
	c.down[l.ID()] = true
	nl := c.waitLeader(200)
	if nl.ID() == l.ID() {
		t.Fatal("crashed leader cannot be the new leader")
	}
	if nl.Term() <= l.Term() {
		t.Fatalf("new term %d must exceed old %d", nl.Term(), l.Term())
	}
}

func TestNoQuorumNoLeader(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	// Kill the leader and one follower: 1 of 3 nodes cannot elect.
	c.down[l.ID()] = true
	killed := false
	for id := range c.nodes {
		if id != l.ID() && !killed {
			c.down[id] = true
			killed = true
		}
	}
	c.run(300)
	if got := c.leader(); got != nil {
		t.Fatalf("leader %d elected without quorum", got.ID())
	}
}

func TestProposeReplicatesAndCommits(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	if err := l.Propose([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	for id, n := range c.nodes {
		found := false
		for _, e := range c.committed[id] {
			if e.Type == EntryNormal && string(e.Data) == "hello" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d did not commit the entry", id)
		}
		if n.CommitIndex() < 2 { // no-op + proposal
			t.Fatalf("node %d commit index = %d", id, n.CommitIndex())
		}
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	for id, n := range c.nodes {
		if id == l.ID() {
			continue
		}
		if err := n.Propose(nil); err != ErrNotLeader {
			t.Fatalf("node %d: err = %v, want ErrNotLeader", id, err)
		}
		break
	}
}

func TestCommittedEntriesSurviveLeaderCrash(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4, 5)
	l := c.waitLeader(100)
	if err := l.Propose([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	c.down[l.ID()] = true
	nl := c.waitLeader(300)
	// The new leader must hold the committed entry (leader completeness).
	found := false
	for _, e := range nl.Log() {
		if string(e.Data) == "durable" {
			found = true
		}
	}
	if !found {
		t.Fatal("new leader missing a committed entry")
	}
}

func TestStaleLogCandidateCannotWin(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	// Partition one follower, then commit entries without it.
	var lag uint64
	for id := range c.nodes {
		if id != l.ID() {
			lag = id
			break
		}
	}
	c.down[lag] = true
	for i := 0; i < 3; i++ {
		if err := l.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.run(10)
	// Heal the partition but kill the leader; only the up-to-date
	// follower may win.
	c.down[lag] = false
	c.down[l.ID()] = true
	nl := c.waitLeader(400)
	if nl.ID() == lag {
		t.Fatal("follower with stale log won the election")
	}
}

func TestDivergentLogTruncated(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	// Cut the leader off (messages dropped) and let it append orphans.
	c.dropFrom[l.ID()] = true
	if err := l.Propose([]byte("orphan1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Propose([]byte("orphan2")); err != nil {
		t.Fatal(err)
	}
	// Remaining nodes elect a new leader and commit a different entry.
	// (The isolated node still believes it leads its old term, so wait
	// specifically for a different leader.)
	var nl *Node
	for i := 0; i < 600 && nl == nil; i++ {
		c.run(1)
		for id, n := range c.nodes {
			if id != l.ID() && n.State() == Leader {
				nl = n
			}
		}
	}
	if nl == nil {
		t.Fatal("no new leader elected")
	}
	if err := nl.Propose([]byte("winner")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	// Reconnect the old leader: its orphan entries must be replaced.
	c.dropFrom[l.ID()] = false
	c.run(50)
	old := c.nodes[l.ID()]
	for _, e := range old.Log() {
		if string(e.Data) == "orphan1" || string(e.Data) == "orphan2" {
			t.Fatal("uncommitted orphan entries survived reconciliation")
		}
	}
	found := false
	for _, e := range old.Log() {
		if string(e.Data) == "winner" {
			found = true
		}
	}
	if !found {
		t.Fatal("reconnected node missing the committed entry")
	}
}

func TestConfChangeAddNode(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	l := c.waitLeader(100)
	// Create node 4 knowing the current members (not itself a member yet).
	n4, err := NewNode(Config{
		ID:              4,
		Peers:           []uint64{1, 2, 3},
		ElectionTickMin: 10,
		ElectionTickMax: 20,
		HeartbeatTick:   2,
		Rng:             rand.New(rand.NewSource(44)),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[4] = n4
	if err := l.ProposeConfChange(ConfChange{Add: true, NodeID: 4}); err != nil {
		t.Fatal(err)
	}
	c.run(20)
	for id, n := range c.nodes {
		if !n.IsMember(4) {
			t.Fatalf("node %d has not applied the conf change", id)
		}
	}
	// The new node must participate: commit something and check it.
	if err := c.leader().Propose([]byte("with-4")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	found := false
	for _, e := range c.committed[4] {
		if string(e.Data) == "with-4" {
			found = true
		}
	}
	if !found {
		t.Fatal("added node did not commit new entries")
	}
}

func TestConfChangeRemoveNode(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4)
	l := c.waitLeader(100)
	var victim uint64
	for id := range c.nodes {
		if id != l.ID() {
			victim = id
			break
		}
	}
	if err := l.ProposeConfChange(ConfChange{Add: false, NodeID: victim}); err != nil {
		t.Fatal(err)
	}
	c.run(20)
	if l.IsMember(victim) {
		t.Fatal("victim still a member after removal")
	}
	if got := len(l.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}
	// Cluster stays operational with the reduced quorum. (The removed
	// node may disrupt one election before it is silenced — it never
	// learns of its own removal — so wait for leadership to settle.)
	c.down[victim] = true
	nl := c.waitLeader(400)
	if err := nl.Propose([]byte("post-removal")); err != nil {
		t.Fatal(err)
	}
	c.run(10)
	if c.leader() == nil {
		t.Fatal("no leader after removal")
	}
}

func TestNonMemberDoesNotCampaign(t *testing.T) {
	n, err := NewNode(Config{
		ID:              9,
		Peers:           []uint64{1, 2, 3}, // 9 not a member
		ElectionTickMin: 5,
		ElectionTickMax: 10,
		HeartbeatTick:   2,
		Rng:             rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		n.Tick()
	}
	if n.State() != Follower {
		t.Fatalf("non-member state = %v, want follower", n.State())
	}
	if len(n.Ready().Messages) != 0 {
		t.Fatal("non-member must not send campaign messages")
	}
}

func TestVoteNotGrantedTwiceInTerm(t *testing.T) {
	n, err := NewNode(Config{
		ID: 1, Peers: []uint64{1, 2, 3},
		ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
		Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Step(Message{Type: MsgVoteRequest, From: 2, To: 1, Term: 5}); err != nil {
		t.Fatal(err)
	}
	rd := n.Ready()
	if len(rd.Messages) != 1 || !rd.Messages[0].Granted {
		t.Fatalf("first vote: %+v", rd.Messages)
	}
	if err := n.Step(Message{Type: MsgVoteRequest, From: 3, To: 1, Term: 5}); err != nil {
		t.Fatal(err)
	}
	rd = n.Ready()
	if len(rd.Messages) != 1 || rd.Messages[0].Granted {
		t.Fatalf("second vote in same term must be denied: %+v", rd.Messages)
	}
	// Same candidate again: idempotent re-grant is allowed.
	if err := n.Step(Message{Type: MsgVoteRequest, From: 2, To: 1, Term: 5}); err != nil {
		t.Fatal(err)
	}
	rd = n.Ready()
	if len(rd.Messages) != 1 || !rd.Messages[0].Granted {
		t.Fatalf("re-vote for same candidate: %+v", rd.Messages)
	}
}

func TestStaleTermMessagesRejected(t *testing.T) {
	n, err := NewNode(Config{
		ID: 1, Peers: []uint64{1, 2},
		ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
		Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Advance our term.
	if err := n.Step(Message{Type: MsgVoteRequest, From: 2, To: 1, Term: 10}); err != nil {
		t.Fatal(err)
	}
	n.Ready()
	// Stale append must be rejected with our term.
	if err := n.Step(Message{Type: MsgAppend, From: 2, To: 1, Term: 3}); err != nil {
		t.Fatal(err)
	}
	rd := n.Ready()
	if len(rd.Messages) != 1 || !rd.Messages[0].Reject || rd.Messages[0].Term != 10 {
		t.Fatalf("stale append response: %+v", rd.Messages)
	}
}

func TestConfChangeCodec(t *testing.T) {
	cc := ConfChange{Add: true, NodeID: 42}
	got, err := DecodeConfChange(cc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != cc {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeConfChange([]byte("not json")); err == nil {
		t.Fatal("want decode error")
	}
}

func TestProposeConfChangeValidation(t *testing.T) {
	t.Run("zero node ID", func(t *testing.T) {
		c := newCluster(t, 1)
		l := c.waitLeader(50)
		if err := l.ProposeConfChange(ConfChange{Add: true, NodeID: 0}); err == nil {
			t.Fatal("want error for zero node ID")
		}
	})
	t.Run("not the leader", func(t *testing.T) {
		c := newCluster(t, 1, 2, 3)
		c.elect(1)
		if err := c.nodes[2].ProposeConfChange(ConfChange{Add: true, NodeID: 4}); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower: err = %v, want ErrNotLeader", err)
		}
	})
	t.Run("second change before the first commits", func(t *testing.T) {
		c := newCluster(t, 1, 2, 3, 4)
		l := c.elect(1)
		if err := l.ProposeConfChange(ConfChange{NodeID: 4}); err != nil {
			t.Fatal(err)
		}
		last := l.LastIndex()
		if err := l.ProposeConfChange(ConfChange{NodeID: 3}); !errors.Is(err, ErrConfChangePending) {
			t.Fatalf("overlapping change: err = %v, want ErrConfChangePending", err)
		}
		if l.LastIndex() != last {
			t.Fatal("a refused change must append nothing")
		}
		c.flush() // the first commits and takes effect
		if err := l.ProposeConfChange(ConfChange{NodeID: 3}); err != nil {
			t.Fatalf("after the first change took effect: %v", err)
		}
	})
	t.Run("new leader before its no-op commits", func(t *testing.T) {
		c := newCluster(t, 1, 2, 3)
		l := c.nodes[1]
		l.Campaign()
		c.hop(1) // vote requests out
		c.hop(2) // grants back: 1 leads term 1 with its no-op queued, not sent
		c.hop(3)
		if l.State() != Leader {
			t.Fatal("node 1 did not win")
		}
		if err := l.ProposeConfChange(ConfChange{Add: true, NodeID: 4}); !errors.Is(err, ErrConfChangePending) {
			t.Fatalf("before the no-op commits: err = %v, want ErrConfChangePending", err)
		}
		c.flush()
		if err := l.ProposeConfChange(ConfChange{Add: true, NodeID: 4}); err != nil {
			t.Fatalf("after the no-op committed: %v", err)
		}
	})
	// A change the previous leader left uncommitted in the new leader's
	// log commits with the new leader's no-op, but takes effect only when
	// applied (Ready): until then the new leader's configuration is still
	// one step behind its log and must not move again.
	t.Run("inherited change committed but not yet in effect", func(t *testing.T) {
		c := newCluster(t, 1, 2, 3)
		old := c.elect(1)
		c.dropTo[3], c.dropFrom[2] = true, true // as far as node 2's log, unacknowledged
		if err := old.ProposeConfChange(ConfChange{Add: true, NodeID: 4}); err != nil {
			t.Fatal(err)
		}
		c.flush()
		inherited := old.LastIndex()
		c.heal(2)
		c.heal(3)
		c.isolate(1)
		l := c.nodes[2]
		if l.LastIndex() != inherited || l.CommitIndex() >= inherited {
			t.Fatalf("setup: node 2 last %d commit %d, want the change at %d uncommitted", l.LastIndex(), l.CommitIndex(), inherited)
		}
		l.Campaign()
		for i := 0; l.CommitIndex() <= inherited; i++ {
			if i == 10 {
				t.Fatal("node 2's no-op did not commit")
			}
			c.hop(2) // drains node 2's Ready first, so nothing newly committed is applied below
			c.hop(3)
		}
		if l.State() != Leader {
			t.Fatal("node 2 did not win")
		}
		if err := l.ProposeConfChange(ConfChange{Add: true, NodeID: 5}); !errors.Is(err, ErrConfChangePending) {
			t.Fatalf("inherited change committed, not applied: err = %v, want ErrConfChangePending", err)
		}
		c.flush()
		if !l.IsMember(4) {
			t.Fatal("inherited change did not take effect")
		}
		if err := l.ProposeConfChange(ConfChange{Add: true, NodeID: 5}); err != nil {
			t.Fatalf("after the inherited change took effect: %v", err)
		}
	})
}

// TestOverlappingConfChangesCannotElectTwoLeaders replays the schedule
// that needs two changes in flight at once. Five nodes, majority three;
// the leader removes 5 and then 4 without waiting. Both entries commit on
// {1,2,3}; node 2 hears of the commit and counts votes among {1,2,3},
// node 3 holds the same entries but not the commit index and still
// counts among all five. A partition {1,2} | {3,4,5} then gives each of
// them a majority of its own configuration in the same term: {1,2} of
// three, {3,4,5} of five, disjoint. (Configurations one change apart
// cannot do this, which is the whole rule: with the second change
// refused, node 2 counts among {1,2,3,4} and two votes elect nobody.)
func TestOverlappingConfChangesCannotElectTwoLeaders(t *testing.T) {
	c := newCluster(t, 1, 2, 3, 4, 5)
	l := c.elect(1)
	heartbeat := func() {
		for i := 0; i < 2; i++ { // HeartbeatTick
			l.Tick()
		}
		c.hop(1)
	}
	for id := uint64(2); id <= 5; id++ {
		c.dropTo[id] = true
	}
	if err := l.ProposeConfChange(ConfChange{NodeID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.ProposeConfChange(ConfChange{NodeID: 4}); !errors.Is(err, ErrConfChangePending) {
		t.Errorf("second removal before the first committed: err = %v, want ErrConfChangePending", err)
	}
	c.hop(1) // both proposals' appends are lost
	c.heal(2)
	c.heal(3)
	heartbeat() // one append carries everything proposed to 2 and 3, commit index still behind it
	c.hop(2)
	c.hop(3) // acknowledged by {1,2,3}: committed
	c.dropTo[3] = true
	c.flush()   // the leader applies
	heartbeat() // node 2 learns the commit index, node 3 does not
	c.flush()

	c.nodes[2].Campaign() // side {1,2}
	c.flush()
	c.heal(3)
	c.heal(4)
	c.heal(5)
	c.dropTo[1], c.dropTo[2] = true, true
	c.nodes[3].Campaign() // side {3,4,5}
	c.flush()

	var leaders []uint64
	for id := uint64(1); id <= 5; id++ {
		if n := c.nodes[id]; n.State() == Leader && n.Term() == 2 {
			leaders = append(leaders, id)
		}
	}
	if len(leaders) != 1 || leaders[0] != 3 {
		t.Fatalf("leaders of term 2 = %v, want [3] alone", leaders)
	}
}

func TestStateStrings(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() == "" || MsgType(9).String() == "" {
		t.Fatal("unknown values must render")
	}
	for _, m := range []MsgType{MsgVoteRequest, MsgVoteResponse, MsgAppend, MsgAppendResponse} {
		if m.String() == "" {
			t.Fatal("empty msg type string")
		}
	}
}

func TestFiveNodeChaos(t *testing.T) {
	// Repeatedly crash and revive random nodes (keeping a quorum) while
	// proposing; the cluster must keep exactly one leader per term and
	// never lose a committed entry.
	c := newCluster(t, 1, 2, 3, 4, 5)
	r := rand.New(rand.NewSource(77))
	var committed []string
	propose := func() {
		if l := c.leader(); l != nil {
			data := []byte{byte(len(committed))}
			if err := l.Propose(data); err == nil {
				committed = append(committed, string(data))
			}
		}
	}
	for round := 0; round < 20; round++ {
		c.waitLeader(500)
		propose()
		c.run(20)
		// Crash one random live node (never dropping below quorum 3/5).
		downCount := 0
		for _, d := range c.down {
			if d {
				downCount++
			}
		}
		if downCount < 2 {
			ids := []uint64{1, 2, 3, 4, 5}
			v := ids[r.Intn(len(ids))]
			c.down[v] = true
		} else {
			// Revive everyone.
			for id := range c.down {
				c.down[id] = false
			}
		}
		c.run(30)
	}
	for id := range c.down {
		c.down[id] = false
	}
	l := c.waitLeader(500)
	c.run(50)
	// Log Matching invariant: any two logs that share (index, term) at
	// some position are identical up to that position.
	var nodes []*Node
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i].Log(), nodes[j].Log()
			limit := len(a)
			if len(b) < limit {
				limit = len(b)
			}
			for k := limit - 1; k >= 0; k-- {
				if a[k].Term != b[k].Term {
					continue
				}
				// Same index+term ⇒ prefixes must match exactly.
				for p := 0; p <= k; p++ {
					if a[p].Term != b[p].Term || string(a[p].Data) != string(b[p].Data) {
						t.Fatalf("log matching violated between %d and %d at index %d",
							nodes[i].ID(), nodes[j].ID(), p+1)
					}
				}
				break
			}
		}
	}
	// Every proposal that was accepted while a quorum was reachable must
	// appear in the final leader's log.
	logData := map[string]bool{}
	for _, e := range l.Log() {
		logData[string(e.Data)] = true
	}
	missing := 0
	for _, d := range committed {
		if !logData[d] {
			missing++
		}
	}
	// Proposals made to a leader that lost quorum immediately afterwards
	// may legitimately be lost (they were never committed); but the vast
	// majority must survive.
	if missing > len(committed)/2 {
		t.Fatalf("%d of %d proposals missing from final log", missing, len(committed))
	}
}

func BenchmarkRaftStepThroughput(b *testing.B) {
	n, err := NewNode(Config{
		ID: 1, Peers: []uint64{1, 2, 3},
		ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
		Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	// Make it leader of term 1 via single-step election.
	n.Campaign()
	n.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: n.Term(), Granted: true})
	n.Ready()
	if n.State() != Leader {
		b.Fatal("setup failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Propose([]byte{1}); err != nil {
			b.Fatal(err)
		}
		n.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: n.Term(), Match: n.CommitIndex() + 1})
		n.Ready()
	}
}
