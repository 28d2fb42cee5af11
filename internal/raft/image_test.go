package raft_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/raft"
	"repro/internal/wire"
)

// imageNet drives three nodes over a network the test owns and captures
// a Persist image, with its wire encoding, at every Ready, and every
// append that carries entries, with its own.
type imageNet struct {
	t         *testing.T
	rng       *rand.Rand
	ids       []uint64
	nodes     map[uint64]*raft.Node
	cut       map[uint64]bool // neither ticked nor reachable
	inflight  []raft.Message
	images    []image
	appends   []sentAppend
	installed int // snapshots installed, as Ready reported them
}

type image struct {
	ps    raft.PersistentState
	frame []byte
}

type sentAppend struct {
	m     raft.Message
	frame []byte
}

func newImageNet(t *testing.T, seed int64) *imageNet {
	w := &imageNet{
		t: t, rng: rand.New(rand.NewSource(seed)), ids: []uint64{1, 2, 3},
		nodes: map[uint64]*raft.Node{}, cut: map[uint64]bool{},
	}
	for _, id := range w.ids {
		n, err := raft.NewNode(imageConfig(id, w.ids, seed))
		if err != nil {
			t.Fatal(err)
		}
		w.nodes[id] = n
	}
	return w
}

func imageConfig(id uint64, peers []uint64, seed int64) raft.Config {
	return raft.Config{
		ID: id, Peers: peers, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 2,
		Rng: rand.New(rand.NewSource(seed*31 + int64(id))),
	}
}

func (w *imageNet) capture(id uint64) {
	ps := w.nodes[id].Persist()
	w.images = append(w.images, image{ps, wire.AppendRaftStateFrame(nil, ps)})
}

// drain takes every node's Ready, captures its image as a driver would
// before sending, and puts the messages on the network.
func (w *imageNet) drain() {
	for _, id := range w.ids {
		n := w.nodes[id]
		if !n.HasPending() {
			continue
		}
		rd := n.Ready()
		w.capture(id)
		if rd.InstalledSnapshot != nil {
			w.installed++
		}
		for _, m := range rd.Messages {
			if m.Type == raft.MsgAppend && len(m.Entries) > 0 {
				w.appends = append(w.appends, sentAppend{m, wire.AppendRaftFrame(nil, m)})
			}
			if !w.cut[m.From] && !w.cut[m.To] {
				w.inflight = append(w.inflight, m)
			}
		}
	}
}

// deliver steps in-flight message i into its destination, if that still
// exists and is reachable.
func (w *imageNet) deliver(i int) {
	m := w.inflight[i]
	w.inflight = slices.Delete(w.inflight, i, i+1)
	if dst := w.nodes[m.To]; dst != nil && !w.cut[m.To] {
		if err := dst.Step(m); err != nil {
			w.t.Fatal(err)
		}
	}
	w.drain()
}

func (w *imageNet) tick() {
	for _, id := range w.ids {
		if !w.cut[id] {
			w.nodes[id].Tick()
		}
	}
	w.drain()
}

func (w *imageNet) propose(n *raft.Node) {
	// Not leading any more is a legitimate outcome of a random schedule.
	_ = n.Propose([]byte(fmt.Sprintf("cmd-%d", w.rng.Int63())))
	w.drain()
}

// random runs steps of an arbitrary schedule: ticks, out-of-order
// deliveries, losses and proposals.
func (w *imageNet) random(steps int) {
	for ; steps > 0; steps-- {
		switch r := w.rng.Intn(10); {
		case r < 3:
			w.tick()
		case r < 8 && len(w.inflight) > 0:
			w.deliver(w.rng.Intn(len(w.inflight)))
		case r == 8 && len(w.inflight) > 0:
			i := w.rng.Intn(len(w.inflight))
			w.inflight = slices.Delete(w.inflight, i, i+1)
		default:
			w.propose(w.nodes[w.ids[w.rng.Intn(len(w.ids))]])
		}
	}
}

// settle runs a calm network until one reachable node leads and every
// reachable node has committed that leader's whole log.
func (w *imageNet) settle() *raft.Node {
	w.t.Helper()
	for i := 0; i < 2000; i++ {
		w.tick()
		for len(w.inflight) > 0 {
			w.deliver(0)
		}
		var lead *raft.Node
		for _, id := range w.ids {
			if n := w.nodes[id]; !w.cut[id] && n.State() == raft.Leader && (lead == nil || n.Term() > lead.Term()) {
				lead = n
			}
		}
		if lead == nil {
			continue
		}
		settled := true
		for _, id := range w.ids {
			if st := w.nodes[id].Status(); !w.cut[id] && (st.CommitIndex != lead.LastIndex() || st.Applied != st.CommitIndex) {
				settled = false
			}
		}
		if settled {
			return lead
		}
	}
	w.t.Fatal("network did not settle")
	return nil
}

func (w *imageNet) compact(n *raft.Node) {
	w.t.Helper()
	data := make([]byte, 1+w.rng.Intn(16))
	w.rng.Read(data)
	if err := n.Compact(n.Status().Applied, data); err != nil {
		w.t.Fatal(err)
	}
	w.capture(n.ID())
}

func (w *imageNet) changeMembership(cc raft.ConfChange) {
	w.t.Helper()
	for i := 0; i < 20; i++ {
		if err := w.settle().ProposeConfChange(cc); err == nil {
			w.drain()
			w.settle()
			return
		}
	}
	w.t.Fatalf("conf change %+v never admitted", cc)
}

func termAt(n *raft.Node, index uint64) uint64 {
	for _, e := range n.Log() {
		if e.Index == index {
			return e.Term
		}
	}
	return 0
}

// TestPersistImagesNeverChange checks the sharing contract of Persist
// from outside: every image captured during a random three-node
// schedule encodes, at the end, to the bytes it encoded to when it was
// captured — after later appends, a forced conflict truncation,
// membership changes, compactions and an installed snapshot. The
// entries of an append are a view of its sender's log too, so every
// append sent, the doomed ones of a leader that then steps down and
// truncates them among them, must encode as it did when it was sent.
func TestPersistImagesNeverChange(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		w := newImageNet(t, seed)
		w.random(300)

		// A leader alone appends entries nobody else will ever hold; the
		// others elect a successor that fills the same indexes. Healed,
		// the old leader must truncate slots its images still show.
		old := w.settle()
		w.cut[old.ID()] = true
		doomed := old.LastIndex() + 1
		for k := 1 + w.rng.Intn(4); k > 0; k-- {
			w.propose(old)
		}
		doomedTerm := termAt(old, doomed)
		next := w.settle()
		for k := 1 + w.rng.Intn(4); k > 0; k-- {
			w.propose(next)
		}
		w.settle()
		w.cut[old.ID()] = false
		w.settle()
		if got := termAt(old, doomed); got == doomedTerm || got != termAt(next, doomed) {
			t.Fatalf("seed %d: index %d of the deposed leader still has term %d (was %d): no truncation happened", seed, doomed, got, doomedTerm)
		}

		// Replace the member slice four times; removing 4 from under 5
		// would shift a slot of an image that still lists both.
		for _, cc := range []raft.ConfChange{{Add: true, NodeID: 4}, {Add: true, NodeID: 5}, {NodeID: 4}, {NodeID: 5}} {
			w.changeMembership(cc)
		}

		// One follower misses entries the other two then compact away, so
		// whoever leads when it returns ships it a snapshot.
		lead := w.settle()
		var behind uint64
		for _, id := range w.ids {
			if id != lead.ID() {
				behind = id
			}
		}
		w.cut[behind] = true
		for k := 2 + w.rng.Intn(4); k > 0; k-- {
			w.propose(lead)
		}
		w.settle()
		for _, id := range w.ids {
			if !w.cut[id] {
				w.compact(w.nodes[id])
			}
		}
		w.cut[behind] = false
		before := w.installed
		w.settle()
		if w.installed == before {
			t.Fatalf("seed %d: the lagging follower caught up without a snapshot", seed)
		}

		w.random(200)

		for i, im := range w.images {
			if now := wire.AppendRaftStateFrame(nil, im.ps); !bytes.Equal(now, im.frame) {
				t.Fatalf("seed %d: image %d of %d (term %d, %d entries) changed after it was captured", seed, i, len(w.images), im.ps.Hard.Term, len(im.ps.Log))
			}
		}
		var doomedSent bool
		for i, a := range w.appends {
			if now := wire.AppendRaftFrame(nil, a.m); !bytes.Equal(now, a.frame) {
				t.Fatalf("seed %d: append %d of %d (%d→%d, term %d, %d entries) changed after it was sent", seed, i, len(w.appends), a.m.From, a.m.To, a.m.Term, len(a.m.Entries))
			}
			doomedSent = doomedSent || a.m.From == old.ID() && slices.ContainsFunc(a.m.Entries, func(e raft.Entry) bool {
				return e.Index == doomed && e.Term == doomedTerm
			})
		}
		if !doomedSent {
			t.Fatalf("seed %d: the deposed leader sent none of the entries it then truncated", seed)
		}

		// A node restored from an image appends, and truncates, without
		// the donor or the image seeing it.
		donor := w.settle()
		w.propose(donor)
		w.propose(donor)
		w.capture(donor.ID())
		im := w.images[len(w.images)-1]
		donorLog := donor.Log()
		heir, err := raft.Restore(imageConfig(donor.ID(), nil, seed), im.ps)
		if err != nil {
			t.Fatal(err)
		}
		last := heir.LastIndex()
		graft := raft.Message{
			Type: raft.MsgAppend, From: behind, To: heir.ID(), Term: heir.Term() + 1,
			PrevLogIndex: last, PrevLogTerm: termAt(heir, last),
			Entries: []raft.Entry{{Index: last + 1, Term: heir.Term() + 1, Data: []byte("graft")}},
		}
		if err := heir.Step(graft); err != nil {
			t.Fatal(err)
		}
		graft.PrevLogIndex, graft.PrevLogTerm = last-1, termAt(heir, last-1)
		graft.Term++
		graft.Entries = []raft.Entry{{Index: last, Term: graft.Term, Data: []byte("overwrite")}}
		if err := heir.Step(graft); err != nil {
			t.Fatal(err)
		}
		if heir.LastIndex() != last || termAt(heir, last) != graft.Term {
			t.Fatalf("seed %d: restored node did not take the conflicting entry", seed)
		}
		if !slices.EqualFunc(donor.Log(), donorLog, func(a, b raft.Entry) bool {
			return a.Index == b.Index && a.Term == b.Term && bytes.Equal(a.Data, b.Data)
		}) || !bytes.Equal(wire.AppendRaftStateFrame(nil, im.ps), im.frame) {
			t.Fatalf("seed %d: a restored node's writes reached its donor", seed)
		}

		// Members hands out the caller's own slice.
		want := donor.Members()
		mine := donor.Members()
		mine[0] = 99
		mine = append(mine, 100)
		if got := donor.Members(); !slices.Equal(got, want) || !slices.Equal(donor.Persist().Peers, want) {
			t.Fatalf("seed %d: writing to Members() changed the node's: %v, want %v (caller's %v)", seed, got, want, mine)
		}
	}
}

// TestPersistCostsNothingAtAnyLogLength pins the capture at zero
// allocations whether the log holds ten entries or ten thousand.
func TestPersistCostsNothingAtAnyLogLength(t *testing.T) {
	n, err := raft.NewNode(imageConfig(1, []uint64{1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	n.Campaign()
	var sink raft.PersistentState
	for _, length := range []int{10, 10_000} {
		for int(n.LastIndex()) < length {
			if err := n.Propose([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		n.Ready()
		if got := testing.AllocsPerRun(100, func() { sink = n.Persist() }); got != 0 {
			t.Fatalf("Persist at log length %d: %v allocations, want 0", length, got)
		}
		if len(sink.Log) != length {
			t.Fatalf("image holds %d entries, want %d", len(sink.Log), length)
		}
	}
}
