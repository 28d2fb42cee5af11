package raft

import "fmt"

// Store is where a Loop makes its member's state durable: Save returns
// once ps would survive the loss of the process. ps is an image Persist
// returned, so Save encodes it or keeps it and writes to nothing it
// reaches.
type Store interface {
	Save(ps PersistentState) error
}

// Loop is the body of a raft member's loop, written once for both
// clocks: simnet.Host runs it under virtual time, cmd/p2pfl-node under a
// time.Ticker. Its owner picks the next input and calls the method of
// that name; each ends in Pump, the only code that drains a Ready and so
// the only place the order Raft requires is written. Like its Node, a
// Loop has no IO, clock or goroutine in it and is not safe for
// concurrent use.
//
// A store error is final: Pump returns it with that Ready's messages
// unsent and its entries unapplied, and the Ready is gone from the node.
// The owner stops feeding the loop — the daemon exits, a simulated host
// crashes — and the member comes back through Restore from the last
// image its store accepted.
type Loop struct {
	// Node is the member. Owners read it freely; what changes it goes
	// through the loop's methods, so nothing it emits misses a Pump.
	Node *Node
	// Store and Send are required. Send may lose the message: raft
	// retries by timeout.
	Store Store
	Send  func(Message)
	// OnSnapshot, if set, observes an installed snapshot; the state
	// machine restores itself from its data before the commits that
	// follow.
	OnSnapshot func(*Snapshot)
	// OnCommit, if set, observes each committed entry, in log order.
	OnCommit func(Entry)
	// OnStateChange, if set, observes each move of (state, term, leader).
	OnStateChange func(state State, term, leader uint64)

	// What OnStateChange last reported.
	state  State
	term   uint64
	leader uint64
}

// Start puts n under the loop and saves it first: a member is durable
// from the moment it exists, as a process writes its state before it
// serves, so one that dies before its first Pump comes back as the node
// it was. n is what NewNode and Restore return, a follower of its term
// that knows no leader, and that is what OnStateChange is taken to have
// last reported. Store, Send and the observers stay across a restart.
func (l *Loop) Start(n *Node) error {
	if err := l.Store.Save(n.Persist()); err != nil {
		return fmt.Errorf("raft: node %d: persist before serving: %w", n.id, err)
	}
	l.Node = n
	l.state, l.term, l.leader = Follower, n.term, None
	return nil
}

// Tick advances the node's timers by one tick.
func (l *Loop) Tick() error {
	l.Node.Tick()
	return l.Pump()
}

// Step feeds the node one inbound message. A message the node refuses
// is returned as its error, with nothing pumped.
func (l *Loop) Step(m Message) error {
	if err := l.Node.Step(m); err != nil {
		return err
	}
	return l.Pump()
}

// Propose appends a client command on a leader (see Node.Propose).
func (l *Loop) Propose(data []byte) error {
	if err := l.Node.Propose(data); err != nil {
		return err
	}
	return l.Pump()
}

// ProposeConfChange appends a membership change on a leader whose
// configuration is settled (see Node.ProposeConfChange).
func (l *Loop) ProposeConfChange(cc ConfChange) error {
	if err := l.Node.ProposeConfChange(cc); err != nil {
		return err
	}
	return l.Pump()
}

// Campaign starts an election now, without waiting out the timeout.
func (l *Loop) Campaign() error {
	l.Node.Campaign()
	return l.Pump()
}

// Pump drains the node's Ready in the order Raft requires: the state is
// saved before any message is sent — a vote or an append must be durable
// before it is acknowledged — then an installed snapshot and the
// committed entries reach the state machine, then the role change is
// reported. With nothing pending and (state, term, leader) where they
// were last reported it returns at once: an idle tick costs a comparison.
func (l *Loop) Pump() error {
	n := l.Node
	if !n.HasPending() && n.state == l.state && n.term == l.term && n.leader == l.leader {
		return nil
	}
	rd := n.Ready()
	if err := l.Store.Save(n.Persist()); err != nil {
		return fmt.Errorf("raft: node %d: persist before send: %w", n.id, err)
	}
	for _, m := range rd.Messages {
		l.Send(m)
	}
	if rd.InstalledSnapshot != nil && l.OnSnapshot != nil {
		l.OnSnapshot(rd.InstalledSnapshot)
	}
	if l.OnCommit != nil {
		for _, e := range rd.Committed {
			l.OnCommit(e)
		}
	}
	if rd.State != l.state || rd.Term != l.term || rd.Leader != l.leader {
		l.state, l.term, l.leader = rd.State, rd.Term, rd.Leader
		if l.OnStateChange != nil {
			l.OnStateChange(rd.State, rd.Term, rd.Leader)
		}
	}
	return nil
}
