package chaos

import (
	"fmt"
	"hash/fnv"

	"repro/internal/raft"
)

// nodeView is one node's externally visible consensus state, as exposed
// to Checkers.
type nodeView struct {
	// ID is the raft node ID.
	ID uint64
	// Group labels the consensus group the node belongs to ("raft" for
	// TargetRaftKV; "sub<g>" / "fed" for TargetTwoLayer).
	Group string
	// Down reports whether the node is currently crashed.
	Down bool
	// State/Term/Leader/Commit/LastIndex mirror raft.Status.
	State     raft.State
	Term      uint64
	Leader    uint64
	Commit    uint64
	LastIndex uint64
}

// view is a consistent snapshot of the whole system handed to Checkers
// at every check interval and once more after quiesce.
type view struct {
	// NowUs is the virtual time of the snapshot in microseconds.
	NowUs int64
	// Nodes lists every node in deterministic (group, ID) order.
	Nodes []nodeView
}

// checker is a named invariant. Check returns one description per
// breach it observes in the view (nil/empty when the invariant holds).
type checker struct {
	Name  string
	Check func(v view) []string
}

// maxViolations caps the report so a badly broken run stays readable.
const maxViolations = 200

// entryFP fingerprints a committed entry for the commit-safety ledger.
type entryFP struct {
	term uint64
	typ  raft.EntryType
	sum  uint64
}

func fingerprint(e raft.Entry) entryFP {
	h := fnv.New64a()
	h.Write(e.Data)
	return entryFP{term: e.Term, typ: e.Type, sum: h.Sum64()}
}

// ledger accumulates the cross-node safety invariants that must be
// checked against history, not just current state: which node won each
// term, what every committed index contained, and each node's
// high-water commit index. One ledger serves all groups of a world;
// keys are namespaced by group label.
type ledger struct {
	rep     *Report
	dedup   map[string]bool
	leaders map[string]uint64  // "group/term" → leader ID
	commits map[string]entryFP // "group/index" → entry fingerprint
	hiwater map[string]uint64  // "group/id" → max observed commit index
}

func newLedger(rep *Report) *ledger {
	return &ledger{
		rep:     rep,
		dedup:   make(map[string]bool),
		leaders: make(map[string]uint64),
		commits: make(map[string]entryFP),
		hiwater: make(map[string]uint64),
	}
}

// violate records one breach, deduplicating identical reports (a broken
// invariant re-observed at every sweep would otherwise drown the run).
func (l *ledger) violate(atUs int64, invariant, detail string) {
	key := invariant + "|" + detail
	if l.dedup[key] || len(l.rep.Violations) >= maxViolations {
		return
	}
	l.dedup[key] = true
	l.rep.Violations = append(l.rep.Violations, Violation{AtUs: atUs, Invariant: invariant, Detail: detail})
}

// noteLeader checks election safety: at most one leader per (group, term).
func (l *ledger) noteLeader(atUs int64, group string, term, id uint64) {
	key := fmt.Sprintf("%s/%d", group, term)
	if prev, ok := l.leaders[key]; ok {
		if prev != id {
			l.violate(atUs, "election-safety",
				fmt.Sprintf("group %s term %d has two leaders: %d and %d", group, term, prev, id))
		}
		return
	}
	l.leaders[key] = id
}

// noteCommit checks commit safety: every node that commits index i must
// commit the identical entry.
func (l *ledger) noteCommit(atUs int64, group string, node uint64, e raft.Entry) {
	key := fmt.Sprintf("%s/%d", group, e.Index)
	fp := fingerprint(e)
	if prev, ok := l.commits[key]; ok {
		if prev != fp {
			l.violate(atUs, "commit-safety",
				fmt.Sprintf("group %s index %d committed divergently (node %d: term %d vs recorded term %d)",
					group, e.Index, node, e.Term, prev.term))
		}
		return
	}
	l.commits[key] = fp
}

// noteCommitIndex checks commit monotonicity: a node's commit index never
// regresses, not even across crash/restart (commit is persisted).
func (l *ledger) noteCommitIndex(atUs int64, group string, id, commit uint64) {
	key := fmt.Sprintf("%s/%d", group, id)
	if commit < l.hiwater[key] {
		l.violate(atUs, "commit-monotonicity",
			fmt.Sprintf("group %s node %d commit index regressed %d → %d", group, id, l.hiwater[key], commit))
		return
	}
	l.hiwater[key] = commit
}

// checkLogMatching verifies the Log Matching property over one group's
// live nodes: any two logs holding an entry at the same index with the
// same term must hold the identical entry.
func (l *ledger) checkLogMatching(atUs int64, group string, nodes []*raft.Node) {
	type logView struct {
		node *raft.Node
		snap uint64
		log  []raft.Entry
	}
	views := make([]logView, 0, len(nodes))
	for _, n := range nodes {
		views = append(views, logView{node: n, snap: n.SnapshotIndex(), log: n.Log()})
	}
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			a, b := views[i], views[j]
			lo := a.snap
			if b.snap > lo {
				lo = b.snap
			}
			hi := a.snap + uint64(len(a.log))
			if bh := b.snap + uint64(len(b.log)); bh < hi {
				hi = bh
			}
			for idx := lo + 1; idx <= hi; idx++ {
				ea, eb := a.log[idx-a.snap-1], b.log[idx-b.snap-1]
				if ea.Term != eb.Term {
					continue // divergent uncommitted suffix — legal, truncated later
				}
				if fingerprint(ea) != fingerprint(eb) {
					l.violate(atUs, "log-matching",
						fmt.Sprintf("group %s index %d term %d differs between nodes %d and %d",
							group, idx, ea.Term, a.node.ID(), b.node.ID()))
				}
			}
		}
	}
}

// checkConfChangeSerial verifies that membership changes are admitted one
// at a time: no live node's log holds two EntryConfChange above its own
// commit index. A leader appends a change only once the previous one is
// applied, and the append that delivers a change to a follower carries a
// commit index covering the one before, so a second one in flight
// anywhere means raft.Node.ProposeConfChange let it through — the state
// from which two disjoint majorities can each elect a leader.
func (l *ledger) checkConfChangeSerial(atUs int64, group string, nodes []*raft.Node) {
	for _, n := range nodes {
		inFlight := 0
		for _, e := range n.Log() {
			if e.Type == raft.EntryConfChange && e.Index > n.CommitIndex() {
				inFlight++
			}
		}
		if inFlight > 1 {
			l.violate(atUs, "conf-change-serial",
				fmt.Sprintf("group %s node %d holds %d uncommitted configuration changes", group, n.ID(), inFlight))
		}
	}
}

// checkCommittedAgreement verifies that two nodes' committed log
// prefixes agree entry-for-entry — the state-machine safety property,
// checked directly on the logs so it works even where commit callbacks
// are owned by the system under test.
func (l *ledger) checkCommittedAgreement(atUs int64, group string, nodes []*raft.Node) {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			la, lb := a.Log(), b.Log()
			sa, sb := a.SnapshotIndex(), b.SnapshotIndex()
			lo := sa
			if sb > lo {
				lo = sb
			}
			hi := a.CommitIndex()
			for _, bound := range []uint64{b.CommitIndex(), sa + uint64(len(la)), sb + uint64(len(lb))} {
				if bound < hi {
					hi = bound
				}
			}
			for idx := lo + 1; idx <= hi; idx++ {
				ea, eb := la[idx-sa-1], lb[idx-sb-1]
				if ea.Term != eb.Term || fingerprint(ea) != fingerprint(eb) {
					l.violate(atUs, "commit-safety",
						fmt.Sprintf("group %s committed index %d differs between nodes %d and %d (terms %d vs %d)",
							group, idx, a.ID(), b.ID(), ea.Term, eb.Term))
				}
			}
		}
	}
}

// runExtra evaluates the campaign's extra checkers against a view.
func (l *ledger) runExtra(checkers []checker, v view) {
	for _, c := range checkers {
		for _, d := range c.Check(v) {
			l.violate(v.NowUs, c.Name, d)
		}
	}
}
