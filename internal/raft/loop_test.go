package raft_test

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/raft"
)

// tracedStore records each Save in the trace it shares with its loop's
// observers, and fails every Save once fail is set.
type tracedStore struct {
	trace *[]string
	fail  error
}

func (s *tracedStore) Save(raft.PersistentState) error {
	*s.trace = append(*s.trace, "save")
	return s.fail
}

// TestLoopPumpsInRaftOrder feeds three loops in lockstep through an
// election, proposals and a membership change, and holds what every
// single input made its loop do to the one order Pump may work in: save,
// then the sends, then the snapshot, the commits and the role change. An
// input that changes nothing does nothing — no save either. A loop whose
// store fails returns that error with nothing sent, applied or reported.
func TestLoopPumpsInRaftOrder(t *testing.T) {
	order := regexp.MustCompile(`^(save( send)*( snapshot)?( commit)*( state)?)?$`)
	ids := []uint64{1, 2, 3}
	loops := map[uint64]*raft.Loop{}
	stores := map[uint64]*tracedStore{}
	var inbox []raft.Message
	var trace []string
	seen := map[string]bool{}
	// input runs one loop input and checks the trace it left.
	input := func(what string, do func() error) error {
		t.Helper()
		trace = trace[:0]
		err := do()
		got := strings.Join(trace, " ")
		if !order.MatchString(got) {
			t.Fatalf("%s: loop did %q; want save, sends, snapshot, commits, state", what, got)
		}
		for _, step := range trace {
			seen[step] = true
		}
		return err
	}
	for _, id := range ids {
		n, err := raft.NewNode(raft.Config{
			ID: id, Peers: ids, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 3,
			Rng: rand.New(rand.NewSource(int64(id))),
		})
		if err != nil {
			t.Fatal(err)
		}
		stores[id] = &tracedStore{trace: &trace}
		l := &raft.Loop{
			Store:         stores[id],
			Send:          func(m raft.Message) { trace = append(trace, "send"); inbox = append(inbox, m) },
			OnSnapshot:    func(*raft.Snapshot) { trace = append(trace, "snapshot") },
			OnCommit:      func(raft.Entry) { trace = append(trace, "commit") },
			OnStateChange: func(raft.State, uint64, uint64) { trace = append(trace, "state") },
		}
		if err := l.Start(n); err != nil {
			t.Fatal(err)
		}
		loops[id] = l
	}
	if got := strings.Join(trace, " "); got != "save save save" {
		t.Fatalf("Start of three members did %q; want one save each", got)
	}
	flush := func() {
		for len(inbox) > 0 {
			m := inbox[0]
			inbox = inbox[1:]
			if loops[m.To] == nil {
				continue // to the member the conf change added: nobody runs it
			}
			if err := input("step", func() error { return loops[m.To].Step(m) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func() {
		for _, id := range ids {
			if err := input("tick", loops[id].Tick); err != nil {
				t.Fatal(err)
			}
		}
		flush()
	}
	leader := func() *raft.Loop {
		for _, id := range ids {
			if loops[id].Node.State() == raft.Leader {
				return loops[id]
			}
		}
		return nil
	}
	for i := 0; i < 100 && leader() == nil; i++ {
		step()
	}
	lead := leader()
	if lead == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 5; i++ {
		if err := input("propose", func() error { return lead.Propose([]byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
		flush()
	}
	if err := input("conf change", func() error { return lead.ProposeConfChange(raft.ConfChange{Add: true, NodeID: 4}) }); err != nil {
		t.Fatal(err)
	}
	flush()
	for _, want := range []string{"save", "send", "commit", "state"} {
		if !seen[want] {
			t.Fatalf("the schedule never made a loop %s", want)
		}
	}

	// A follower's tick between heartbeats changes nothing durable.
	var follower *raft.Loop
	for _, id := range ids {
		if loops[id] != lead {
			follower = loops[id]
		}
	}
	if err := input("idle tick", follower.Tick); err != nil || len(trace) != 0 {
		t.Fatalf("idle tick: err %v, loop did %v; want nothing", err, trace)
	}
	// A refusal is the node's own error, with nothing pumped.
	if err := input("propose at a follower", func() error { return follower.Propose(nil) }); !errors.Is(err, raft.ErrNotLeader) || len(trace) != 0 {
		t.Fatalf("propose at a follower: err %v, loop did %v", err, trace)
	}

	// The follower's disk fails under the next heartbeat it answers.
	full := errors.New("no space left on device")
	stores[follower.Node.ID()].fail = full
	for i := 0; i < 3; i++ {
		if err := input("tick", lead.Tick); err != nil {
			t.Fatal(err)
		}
	}
	var failed bool
	for _, m := range inbox {
		if m.To != follower.Node.ID() {
			continue
		}
		failed = true
		if err := input("step", func() error { return follower.Step(m) }); !errors.Is(err, full) {
			t.Fatalf("step over a failing store: err = %v, want it to wrap %v", err, full)
		}
		if got := strings.Join(trace, " "); got != "save" {
			t.Fatalf("step over a failing store did %q; want the save alone", got)
		}
		break
	}
	if !failed {
		t.Fatal("three leader ticks sent the follower nothing")
	}
}

// TestReadyThatAddsAMemberLeavesItsAppend pins a Ready that leaves
// output behind: when a leader's Ready applies an Add ConfChange,
// applyConfChange queues the new member's first append after Ready
// drained the outbox. So the Pump that applied the change sends nothing
// to the member, the node still HasPending, and the append leaves on the
// loop's next Pump — a host that skips ticks must still pump such a node
// on its next one.
func TestReadyThatAddsAMemberLeavesItsAppend(t *testing.T) {
	n, err := raft.NewNode(raft.Config{ID: 1, Peers: []uint64{1}, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sent []raft.Message
	l := &raft.Loop{Store: &tracedStore{trace: new([]string)}, Send: func(m raft.Message) { sent = append(sent, m) }}
	if err := l.Start(n); err != nil {
		t.Fatal(err)
	}
	if err := l.Campaign(); err != nil || n.State() != raft.Leader {
		t.Fatalf("a lone voter's campaign: %v, state %v", err, n.State())
	}
	// A lone voter commits the change as it appends it, and the Pump
	// that ends ProposeConfChange applies it.
	if err := l.ProposeConfChange(raft.ConfChange{Add: true, NodeID: 2}); err != nil {
		t.Fatal(err)
	}
	if got := n.Members(); len(got) != 2 {
		t.Fatalf("members %v after the Pump that applied adding 2", got)
	}
	if len(sent) != 0 || !n.HasPending() {
		t.Fatalf("the Pump that applied adding 2 sent %v and left pending output %v; want nothing sent and the append left", sent, n.HasPending())
	}
	if err := l.Pump(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || sent[0].Type != raft.MsgAppend || sent[0].To != 2 || n.HasPending() {
		t.Fatalf("the next Pump sent %v, pending %v; want the append to 2 and nothing left", sent, n.HasPending())
	}
}
