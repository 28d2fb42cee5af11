package raft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// This file is a breadth-first checker over every schedule of three
// real Nodes, each driven through its own Loop, within a bound: the
// safety half of Raft (Ongaro & Ousterhout, USENIX ATC 2014, Fig. 3) is
// checked after every move of every reachable state, not on sampled
// runs.
//
// A state is every node's full state (copied by Node.clone), its state
// machine, the multiset of messages in flight, and two ghost records
// that the checks read: who led each term, and every entry some node
// applied. The moves are: deliver, drop or duplicate any message in
// flight; Campaign on any member; a heartbeat from a leader; Propose,
// and ProposeConfChange — add the spare fourth id, remove any member —
// on a leader; and crash, then Restore from Persist(). A bound may leave
// duplication and crashes out. Nodes compact at SnapshotThreshold 1
// over a state machine that is not idempotent, the ordered string of
// applied payloads, so snapshot send and install are in the explored
// space.
//
// States are told apart by a canonical encoding, hashed (key): a state
// reached by two schedules, or a mirror image of one seen (ids 1, 2 and
// 3 relabelled), is explored once. A state past the bound is checked
// but not expanded. The search keeps a state's parent and the move from
// it, not the state: a state is rebuilt by replaying its moves, sharing
// the replay with the state expanded before it (worldOf), so memory
// grows by a few tens of bytes a state and a failing one is reported as
// the schedule that reaches it — one of the shortest, since the search
// is breadth first.

// checkNodes is the number of node ids: three members and a spare that
// joins through a configuration change.
const checkNodes = 4

// bound caps the explored space: no state with a term above maxTerm, a
// log past maxIndex or more than maxFlight messages in flight is
// expanded.
type bound struct {
	maxTerm, maxIndex, maxFlight int
	// dups offers the duplication of a message in flight, and crashes
	// the crash and restart of a node.
	dups, crashes bool
}

// shortBound is what `go test ./internal/raft/` explores, -short or
// not: elections over two terms, a leader's no-op and one more entry
// (a proposal or a membership change), compaction and snapshot install,
// with no message duplicated and no node crashed — 467,757 states in
// about 5 s on a 2-vCPU host. check_deep_test.go has the deeper bounds
// `make test-raft` runs.
var shortBound = bound{maxTerm: 2, maxIndex: 2, maxFlight: 2}

// applyRec is the ghost record of one applied index: the entry the
// first node to apply it applied, and that node's term then (the term
// in which it was committed: a leader applies what it commits in the
// Pump that commits it).
type applyRec struct {
	term, commitTerm uint64
	typ              EntryType
	data             string
}

// checkWorld is one state. Worlds share what a move does not touch: a
// move clones the one loop it drives, so a Loop or Node reached from a
// world is never written after the world is built.
type checkWorld struct {
	loops [checkNodes]*Loop
	apps  [checkNodes]string
	// flight is the multiset of messages in flight, sorted by key.
	flight   []flight
	leaderOf [8]uint64
	applied  [8]applyRec
}

type flight struct {
	key string
	m   Message
}

// transition names one move out of a world: kind, the node it drives
// (0-based) or the flight index it takes, and for a removal the member.
type transition struct {
	kind byte
	node uint8
	arg  uint8
}

const (
	tDeliver byte = iota
	tDrop
	tDup
	tCampaign
	tHeartbeat
	tPropose
	tAdd
	tRemove
	tCrash
)

// checker runs the search. Every loop's callbacks write to cur, the
// world the current move builds, and broken collects what the checks
// found wrong with it.
type checker struct {
	b      bound
	rng    *rand.Rand
	cur    *checkWorld
	broken []string
	// Scratch of key: the encoding, the best one yet, the members'
	// signatures, and the messages' encodings with their bounds.
	buf, best, mbuf []byte
	sig             [3][]byte
	offs            [][2]int
}

func (c *checker) config(id uint64) Config {
	return Config{
		ID: id, Peers: []uint64{1, 2, 3},
		// A span of one tick: every timeout draw is the same, so the
		// rng the nodes share is no part of the state.
		ElectionTickMin: 2, ElectionTickMax: 3, HeartbeatTick: 1,
		Rng:               c.rng,
		SnapshotThreshold: 1,
		SnapshotState:     func() []byte { return []byte(c.cur.apps[id-1]) },
	}
}

// memStore is every node's store. It keeps nothing: each move ends in a
// Pump, which saves what Persist returns, so a node crashed between
// moves restores from Persist().
type memStore struct{}

func (memStore) Save(PersistentState) error { return nil }

func (c *checker) loop(id uint64, n *Node) *Loop {
	i := int(id - 1)
	return &Loop{
		Node:  n,
		Store: memStore{},
		Send:  c.send,
		OnSnapshot: func(s *Snapshot) {
			c.cur.apps[i] = string(s.Data)
		},
		OnCommit: func(e Entry) {
			w := c.cur
			if e.Type == EntryNormal {
				w.apps[i] += string(e.Data)
			}
			if w.applied[e.Index].term == 0 {
				w.applied[e.Index] = applyRec{term: e.Term, commitTerm: w.loops[i].Node.term, typ: e.Type, data: string(e.Data)}
			}
		},
	}
}

func (c *checker) send(m Message) {
	f := flight{key: string(appendMessage(nil, m, &identity)), m: m}
	w := c.cur
	i, _ := slices.BinarySearchFunc(w.flight, f.key, func(f flight, k string) int { return strings.Compare(f.key, k) })
	w.flight = slices.Insert(w.flight, i, f)
}

// root is the start: three members that know nothing and the spare,
// which knows the members and is not one.
func (c *checker) root() *checkWorld {
	w := &checkWorld{}
	c.cur = w
	for id := uint64(1); id <= checkNodes; id++ {
		n, err := NewNode(c.config(id))
		if err != nil {
			panic(err)
		}
		l := c.loop(id, n)
		if err := l.Start(n); err != nil {
			panic(err)
		}
		w.loops[id-1] = l
	}
	return w
}

// clone returns a copy of n that shares nothing either will write: the
// log and member slices are clipped or replaced, never written in place
// (see Persist), and snapshots are replaced, never edited. The vote
// tally is written only by a candidate, and the replication maps only
// by a leader; both are replaced, not written, on the way into the
// role, so a node in another role shares them.
func (n *Node) clone() *Node {
	c := *n
	c.log = slices.Clip(n.log)
	c.msgs = slices.Clip(n.msgs)
	c.peers = maps.Clone(n.peers)
	switch n.state {
	case Candidate, PreCandidate:
		c.votes = maps.Clone(n.votes)
	case Leader:
		c.nextIndex = maps.Clone(n.nextIndex)
		c.matchIndex = maps.Clone(n.matchIndex)
		c.active = maps.Clone(n.active)
	}
	return &c
}

// own makes the successor's loop i its own before a move drives it.
func (w *checkWorld) own(i int) *Loop {
	l := *w.loops[i]
	l.Node = l.Node.clone()
	w.loops[i] = &l
	return &l
}

// transitions lists every move out of w, in a fixed order.
func (c *checker) transitions(w *checkWorld) []transition {
	var ts []transition
	for i := range w.flight {
		if i > 0 && w.flight[i].key == w.flight[i-1].key {
			continue // a copy of the one before: the same moves
		}
		ts = append(ts, transition{tDeliver, 0, uint8(i)}, transition{tDrop, 0, uint8(i)})
		if c.b.dups && len(w.flight) < c.b.maxFlight {
			ts = append(ts, transition{tDup, 0, uint8(i)})
		}
	}
	for i, l := range w.loops {
		n := l.Node
		if n.peers[n.id] {
			ts = append(ts, transition{tCampaign, uint8(i), 0})
		}
		if n.state == Leader {
			ts = append(ts, transition{tHeartbeat, uint8(i), 0}, transition{tPropose, uint8(i), 0})
			if !n.peers[checkNodes] {
				ts = append(ts, transition{tAdd, uint8(i), 0})
			}
			for _, m := range n.members {
				ts = append(ts, transition{tRemove, uint8(i), uint8(m)})
			}
		}
		if c.b.crashes {
			ts = append(ts, transition{tCrash, uint8(i), 0})
		}
	}
	return ts
}

// step builds the successor of w under t, drops the messages in it that
// can no longer change anything, and records who leads. A move the node
// refuses (ErrConfChangePending) leaves a successor equal to w, which
// the search has already seen.
func (c *checker) step(w *checkWorld, t transition) *checkWorld {
	nw := *w
	nw.flight = slices.Clone(w.flight)
	c.cur = &nw
	switch t.kind {
	case tDeliver:
		f := w.flight[t.arg]
		nw.flight = slices.Delete(nw.flight, int(t.arg), int(t.arg)+1)
		if err := nw.own(int(f.m.To - 1)).Step(f.m); err != nil {
			panic(err)
		}
	case tDrop:
		nw.flight = slices.Delete(nw.flight, int(t.arg), int(t.arg)+1)
	case tDup:
		nw.flight = slices.Insert(nw.flight, int(t.arg), w.flight[t.arg])
	case tCrash:
		ps := w.loops[t.node].Node.Persist()
		n, err := Restore(c.config(uint64(t.node)+1), ps)
		if err != nil {
			panic(err)
		}
		// A state machine lives in memory: it comes back as the
		// snapshot plus the committed entries after it, as the node does.
		app := ""
		if ps.Snapshot != nil {
			app = string(ps.Snapshot.Data)
		}
		for _, e := range ps.Log {
			if e.Index <= ps.Hard.Commit && e.Type == EntryNormal {
				app += string(e.Data)
			}
		}
		nw.apps[t.node] = app
		l := *w.loops[t.node]
		if err := l.Start(n); err != nil {
			panic(err)
		}
		nw.loops[t.node] = &l
	default:
		l := nw.own(int(t.node))
		switch t.kind {
		case tCampaign:
			_ = l.Campaign()
		case tHeartbeat:
			_ = l.Tick()
		case tPropose:
			_ = l.Propose(payload(l.Node))
		case tAdd, tRemove:
			_ = l.ProposeConfChange(t.confChange())
		}
	}
	nw.flight = slices.DeleteFunc(nw.flight, func(f flight) bool { return dead(f.m, nw.loops[f.m.To-1].Node) })
	for _, l := range nw.loops {
		if n := l.Node; n.state == Leader && nw.leaderOf[n.term] == None {
			nw.leaderOf[n.term] = n.id
		}
	}
	return &nw
}

// payload is what leader n proposes next. It names its term and index,
// so no two proposals are alike and the state machine is an ordered
// string.
func payload(n *Node) []byte { return []byte{'a' - 1 + byte(n.term), '0' + byte(n.lastIndex()+1)} }

func (t transition) confChange() ConfChange {
	if t.kind == tAdd {
		return ConfChange{Add: true, NodeID: checkNodes}
	}
	return ConfChange{NodeID: uint64(t.arg)}
}

// describe tells move t out of w in one line.
func describe(w *checkWorld, t transition) string {
	n := w.loops[t.node].Node
	switch t.kind {
	case tDeliver:
		return "deliver " + messageString(w.flight[t.arg].m)
	case tDrop:
		return "drop " + messageString(w.flight[t.arg].m)
	case tDup:
		return "duplicate " + messageString(w.flight[t.arg].m)
	case tCrash:
		return fmt.Sprintf("node %d crashes and restarts from its persisted state", n.id)
	case tCampaign:
		return fmt.Sprintf("node %d campaigns", n.id)
	case tHeartbeat:
		return fmt.Sprintf("leader %d heartbeats", n.id)
	case tPropose:
		return fmt.Sprintf("leader %d proposes %q", n.id, payload(n))
	default:
		return fmt.Sprintf("leader %d proposes %s", n.id, confString(t.confChange()))
	}
}

// dead reports whether delivering m to n could change nothing, now or
// later: a response of a term n has left, or of n's term to a node no
// longer in the role that asked (a node never regains a role within a
// term). Dropping it is a move the search has anyway.
func dead(m Message, n *Node) bool {
	switch {
	case m.Term > n.term:
		return false
	case m.Type == MsgVoteResponse:
		return m.Term < n.term || n.state != Candidate
	case m.Type == MsgAppendResponse:
		return m.Term < n.term || n.state != Leader
	}
	return false
}

// check runs the safety properties on w — election safety, log
// matching, leader completeness, state-machine safety, commit ≤ last
// index and one configuration change at a time — appending what fails
// to c.broken. They read the state alone, so a state is checked once.
func (c *checker) check(w *checkWorld) {
	bad := func(format string, args ...any) { c.broken = append(c.broken, fmt.Sprintf(format, args...)) }
	for i, l := range w.loops {
		n := l.Node
		if n.state == Leader {
			if prev := w.leaderOf[n.term]; prev != n.id {
				bad("election-safety: nodes %d and %d both lead term %d", prev, n.id, n.term)
			}
			for idx, rec := range w.applied {
				if rec.term == 0 || rec.commitTerm >= n.term || uint64(idx) <= n.snapIndex {
					continue
				}
				if uint64(idx) > n.lastIndex() || n.termAt(uint64(idx)) != rec.term {
					bad("leader-completeness: leader %d of term %d lacks index %d of term %d, committed in term %d",
						n.id, n.term, idx, rec.term, rec.commitTerm)
				}
			}
		}
		if n.commitIndex > n.lastIndex() {
			bad("commit-bound: node %d commit index %d beyond last log index %d", n.id, n.commitIndex, n.lastIndex())
		}
		pending := 0
		for _, e := range n.log {
			if e.Type == EntryConfChange && e.Index > n.commitIndex {
				pending++
			}
		}
		if pending > 1 {
			bad("conf-change-serial: node %d holds %d uncommitted configuration changes", n.id, pending)
		}
		// Every node applies the entries every other applied, and its
		// state machine is what they make of it.
		for idx := n.snapIndex + 1; idx <= n.applied; idx++ {
			if e, rec := n.entryAt(idx), w.applied[idx]; e.Term != rec.term || e.Type != rec.typ || string(e.Data) != rec.data {
				bad("state-machine-safety: node %d applied %s at index %d, where %s was applied first",
					n.id, entryString(e), idx, entryString(Entry{Index: idx, Term: rec.term, Type: rec.typ, Data: []byte(rec.data)}))
			}
		}
		want := ""
		for idx := uint64(1); idx <= n.applied; idx++ {
			if rec := w.applied[idx]; rec.typ == EntryNormal {
				want += rec.data
			}
		}
		if w.apps[i] != want {
			bad("state-machine-safety: node %d has applied %q through index %d, the applied entries say %q", n.id, w.apps[i], n.applied, want)
		}
		for _, o := range w.loops[i+1:] {
			if idx := logMismatch(n, o.Node); idx != 0 {
				bad("log-matching: nodes %d and %d agree on the term at some index but differ at index %d", n.id, o.Node.id, idx)
			}
		}
	}
}

// logMismatch returns an index at which a and b differ below an index
// where they hold entries of one term, or 0.
func logMismatch(a, b *Node) uint64 {
	lo := max(a.snapIndex, b.snapIndex) + 1
	hi := min(a.lastIndex(), b.lastIndex())
	for top := hi; top >= lo; top-- {
		if a.termAt(top) != b.termAt(top) {
			continue
		}
		for idx := lo; idx <= top; idx++ {
			ea, eb := a.entryAt(idx), b.entryAt(idx)
			if ea.Term != eb.Term || ea.Type != eb.Type || !bytes.Equal(ea.Data, eb.Data) {
				return idx
			}
		}
		return 0
	}
	return 0
}

// inBound reports whether w is expanded.
func (c *checker) inBound(w *checkWorld) bool {
	if len(w.flight) > c.b.maxFlight {
		return false
	}
	for _, l := range w.loops {
		if int(l.Node.term) > c.b.maxTerm || int(l.Node.lastIndex()) > c.b.maxIndex {
			return false
		}
	}
	return true
}

// key encodes w canonically: equal keys, equal futures. The three
// members are interchangeable — nothing in a node or the checker tells
// ids 1, 2 and 3 apart but the ids themselves — so w is encoded under
// every relabelling of them that puts their id-free signatures in order,
// and the least encoding is the key: one key for a state and its mirror
// images.
func (c *checker) key(w *checkWorld) []byte {
	var sigs [3][]byte
	for i := range sigs {
		n := w.loops[i].Node
		s := append(c.sig[i][:0], byte(n.state), byte(n.term), byte(n.commitIndex), byte(n.snapIndex), byte(len(n.log)))
		for _, e := range n.log {
			s = append(s, byte(e.Term), byte(e.Type))
		}
		sigs[i] = append(s, w.apps[i]...)
		c.sig[i] = sigs[i]
	}
	var best []byte
	for _, p := range perms {
		if bytes.Compare(sigs[p[0]-1], sigs[p[1]-1]) > 0 || bytes.Compare(sigs[p[1]-1], sigs[p[2]-1]) > 0 {
			continue
		}
		// p lists the old ids in their new order: new id j+1 is p[j].
		var to [checkNodes + 1]uint64
		for j, old := range p {
			to[old] = uint64(j + 1)
		}
		to[checkNodes] = checkNodes
		b := c.encode(w, p, &to)
		if best == nil || bytes.Compare(b, best) < 0 {
			c.best = append(c.best[:0], b...)
			best = c.best
		}
	}
	return best
}

// perms are the orders of the three members.
var perms = [6][3]uint64{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}

// encode writes w with every id relabelled by to, members in the order
// p; the buffer is reused by the next call.
func (c *checker) encode(w *checkWorld, p [3]uint64, to *[checkNodes + 1]uint64) []byte {
	b := c.buf[:0]
	for _, old := range append(p[:], checkNodes) {
		i := old - 1
		n := w.loops[i].Node
		// The leader a follower knows is left out: it steers nothing
		// but what a status read reports (pre-vote is off).
		b = append(b, byte(n.state), byte(n.term), byte(to[n.votedFor]),
			byte(n.commitIndex), byte(n.applied), byte(n.snapIndex), byte(n.snapTerm),
			byte(n.electionElapsed), byte(n.electionTimeout), byte(n.heartbeatElapsed), byte(len(n.log)))
		for _, e := range n.log {
			b = appendEntry(b, e, to)
		}
		b = appendIDs(b, n.members, to)
		b = appendSnapshot(b, n.snapshot, to)
		b = append(b, byte(len(n.msgs)), boolByte(n.pendingSnap != nil))
		var inv [checkNodes + 1]uint64
		for id := uint64(1); id <= checkNodes; id++ {
			inv[to[id]] = id
		}
		switch n.state {
		case Candidate, PreCandidate:
			for id := uint64(1); id <= checkNodes; id++ {
				b = append(b, boolByte(n.votes[inv[id]]))
			}
		case Leader:
			for id := uint64(1); id <= checkNodes; id++ {
				b = append(b, byte(n.nextIndex[inv[id]]), byte(n.matchIndex[inv[id]]))
			}
		}
		b = append(b, byte(len(w.apps[i])))
		b = append(b, w.apps[i]...)
	}
	// The messages in flight, as a sorted list of their encodings.
	mb, offs := c.mbuf[:0], c.offs[:0]
	for _, f := range w.flight {
		start := len(mb)
		mb = appendMessage(mb, f.m, to)
		offs = append(offs, [2]int{start, len(mb)})
	}
	slices.SortFunc(offs, func(x, y [2]int) int { return bytes.Compare(mb[x[0]:x[1]], mb[y[0]:y[1]]) })
	b = append(b, byte(len(offs)))
	for _, o := range offs {
		b = append(b, mb[o[0]:o[1]]...)
	}
	c.mbuf, c.offs = mb, offs
	for _, id := range w.leaderOf {
		b = append(b, byte(to[id]))
	}

	for _, r := range w.applied {
		b = appendEntry(append(b, byte(r.commitTerm)), Entry{Term: r.term, Type: r.typ, Data: []byte(r.data)}, to)
	}
	c.buf = b
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendEntry writes e with the member a configuration change names
// relabelled by to.
func appendEntry(b []byte, e Entry, to *[checkNodes + 1]uint64) []byte {
	b = append(b, byte(e.Index), byte(e.Term), byte(e.Type))
	if e.Type == EntryConfChange {
		cc := confChanges[string(e.Data)]
		return append(b, boolByte(cc.Add), byte(to[cc.NodeID]))
	}
	b = append(b, byte(len(e.Data)))
	return append(b, e.Data...)
}

// appendIDs writes the set ids relabelled by to, in order.
func appendIDs(b []byte, ids []uint64, to *[checkNodes + 1]uint64) []byte {
	var set [checkNodes + 1]bool
	for _, id := range ids {
		set[to[id]] = true
	}
	for _, in := range set {
		b = append(b, boolByte(in))
	}
	return b
}

func appendSnapshot(b []byte, s *Snapshot, to *[checkNodes + 1]uint64) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = appendIDs(append(b, 1, byte(s.Index), byte(s.Term)), s.Peers, to)
	b = append(b, byte(len(s.Data)))
	return append(b, s.Data...)
}

func appendMessage(b []byte, m Message, to *[checkNodes + 1]uint64) []byte {
	b = append(b, byte(m.Type), byte(to[m.From]), byte(to[m.To]), byte(m.Term),
		byte(m.LastLogIndex), byte(m.LastLogTerm), boolByte(m.Granted),
		byte(m.PrevLogIndex), byte(m.PrevLogTerm), byte(m.Commit), boolByte(m.Reject), byte(m.Match),
		byte(len(m.Entries)))
	for _, e := range m.Entries {
		b = appendEntry(b, e, to)
	}
	return appendSnapshot(b, m.Snapshot, to)
}

// confChanges decodes the payloads of every change the checker
// proposes.
var confChanges = func() map[string]ConfChange {
	m := map[string]ConfChange{}
	for id := uint64(1); id <= checkNodes; id++ {
		for _, add := range []bool{false, true} {
			m[string(ConfChange{Add: add, NodeID: id}.Encode())] = ConfChange{Add: add, NodeID: id}
		}
	}
	return m
}()

// identity labels every id as itself.
var identity = [checkNodes + 1]uint64{0, 1, 2, 3, 4}

// stateSet is an open-addressed set of 64-bit state hashes, 8 bytes a
// slot at most half full. Two states collide with probability about
// n²/2⁶⁵ over n states (under 10⁻⁵ at 10⁷).
type stateSet struct {
	slots []uint64
	n     int
}

// add puts h in the set and reports whether it was new.
func (s *stateSet) add(h uint64) bool {
	h |= 1 // 0 marks an empty slot
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]uint64, max(1024, 2*len(old))), 0
		for _, o := range old {
			if o != 0 {
				s.add(o)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = h
			s.n++
			return true
		case h:
			return false
		}
	}
}

// hash64 folds b into 64 bits eight bytes at a time with splitmix64's
// multipliers, and finishes with its mixer so that the low bits the set
// indexes by are spread.
func hash64(b []byte) uint64 {
	h := uint64(len(b)) * 0x9e3779b97f4a7c15
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(b))*0xbf58476d1ce4e5b9, 31)
	}
	for i, x := range b {
		h ^= uint64(x) << (8 * i)
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// explore runs the search from the root and returns how many distinct
// states it reached and, for the first state that fails a check, the
// schedule that reaches it with what failed.
func explore(b bound) (states int, schedule []string, broken []string) {
	c := &checker{b: b, rng: rand.New(rand.NewSource(1))}
	var seen stateSet
	// Each reached state remembers its parent and the move from it.
	type via struct {
		parent int32
		t      transition
	}
	vias := []via{{parent: -1}}
	root := c.root()
	seen.add(hash64(c.key(root)))

	// worldOf rebuilds state id by replaying the moves from the root,
	// starting from the longest prefix of them it rebuilt last time:
	// the queue holds siblings together and parents in order, so most
	// states cost one move.
	var pathIDs, chain []int32
	var pathWorlds []*checkWorld
	worldOf := func(id int32) *checkWorld {
		chain = chain[:0]
		for v := id; v >= 0; v = vias[v].parent {
			chain = append(chain, v)
		}
		slices.Reverse(chain)
		k := 0
		for k < len(chain) && k < len(pathIDs) && chain[k] == pathIDs[k] {
			k++
		}
		pathIDs, pathWorlds = pathIDs[:k], pathWorlds[:k]
		for ; k < len(chain); k++ {
			w := root
			if k > 0 {
				w = c.step(pathWorlds[k-1], vias[chain[k]].t)
			}
			pathIDs, pathWorlds = append(pathIDs, chain[k]), append(pathWorlds, w)
		}
		return pathWorlds[len(pathWorlds)-1]
	}

	queue := []int32{0}
	for head := 0; head < len(queue); head++ {
		w := worldOf(queue[head])
		for _, t := range c.transitions(w) {
			nw := c.step(w, t)
			if !seen.add(hash64(c.key(nw))) {
				continue
			}
			vias = append(vias, via{queue[head], t})
			id := int32(len(vias) - 1)
			c.broken = nil
			if c.check(nw); len(c.broken) > 0 {
				broken = c.broken
				var path []transition
				for v := id; v > 0; v = vias[v].parent {
					path = append(path, vias[v].t)
				}
				slices.Reverse(path)
				w := c.root()
				for _, t := range path {
					schedule = append(schedule, describe(w, t))
					w = c.step(w, t)
				}
				return len(vias), schedule, broken
			}
			if c.inBound(nw) {
				queue = append(queue, id)
			}
		}
	}
	return len(vias), nil, nil
}

// runExplore is the test body of every bound: no reachable state may
// fail a check, and a failing one is reported with its schedule.
func runExplore(t *testing.T, b bound) {
	start := time.Now()
	states, schedule, broken := explore(b)
	t.Logf("term ≤ %d, index ≤ %d, ≤ %d messages in flight, duplication %v, crashes %v: %d states explored in %v",
		b.maxTerm, b.maxIndex, b.maxFlight, b.dups, b.crashes, states, time.Since(start).Round(time.Millisecond))
	if broken == nil {
		return
	}
	var sb strings.Builder
	for i, s := range schedule {
		fmt.Fprintf(&sb, "\n  %2d. %s", i+1, s)
	}
	for _, s := range broken {
		fmt.Fprintf(&sb, "\n  broken: %s", s)
	}
	t.Fatalf("a schedule of %d moves breaks raft's safety:%s", len(schedule), sb.String())
}

// TestEverySmallScheduleIsSafe explores every schedule of three nodes
// and a spare within shortBound.
func TestEverySmallScheduleIsSafe(t *testing.T) { runExplore(t, shortBound) }

func messageString(m Message) string {
	s := fmt.Sprintf("%v %d→%d term %d", m.Type, m.From, m.To, m.Term)
	switch m.Type {
	case MsgVoteRequest, MsgPreVoteRequest:
		s += fmt.Sprintf(" last %d/%d", m.LastLogIndex, m.LastLogTerm)
	case MsgVoteResponse, MsgPreVoteResponse:
		s += fmt.Sprintf(" granted %v", m.Granted)
	case MsgAppend:
		var es []string
		for _, e := range m.Entries {
			es = append(es, entryString(e))
		}
		s += fmt.Sprintf(" prev %d/%d [%s] commit %d", m.PrevLogIndex, m.PrevLogTerm, strings.Join(es, " "), m.Commit)
	case MsgAppendResponse:
		s += fmt.Sprintf(" reject %v match %d", m.Reject, m.Match)
	case MsgSnapshot:
		s += fmt.Sprintf(" snapshot %d/%d peers %v data %q", m.Snapshot.Index, m.Snapshot.Term, m.Snapshot.Peers, m.Snapshot.Data)
	}
	return s
}

func entryString(e Entry) string {
	switch e.Type {
	case EntryNoop:
		return fmt.Sprintf("%d/%d noop", e.Index, e.Term)
	case EntryConfChange:
		cc, err := DecodeConfChange(e.Data)
		if err != nil {
			return fmt.Sprintf("%d/%d bad conf change", e.Index, e.Term)
		}
		return fmt.Sprintf("%d/%d %s", e.Index, e.Term, confString(cc))
	default:
		return fmt.Sprintf("%d/%d %q", e.Index, e.Term, e.Data)
	}
}

func confString(cc ConfChange) string {
	if cc.Add {
		return fmt.Sprintf("add %d", cc.NodeID)
	}
	return fmt.Sprintf("remove %d", cc.NodeID)
}
