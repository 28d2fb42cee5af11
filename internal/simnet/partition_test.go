package simnet

import (
	"testing"

	"repro/internal/raft"
)

func TestPartitionMajorityElectsMinorityCannot(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, 21)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no initial leader")
	}
	sim.RunFor(200 * Millisecond)
	old := g.Leader()

	// Partition the leader with one follower (minority side).
	var partner uint64
	for id := range g.hosts {
		if id != old {
			partner = id
			break
		}
	}
	side := map[uint64]bool{old: true, partner: true}
	g.Partition(side)

	// The majority side elects a new leader.
	ok := sim.RunWhileNot(func() bool {
		for id, h := range g.hosts {
			if side[id] || h.Down() {
				continue
			}
			if h.Node.State() == raft.Leader {
				return true
			}
		}
		return false
	}, sim.Now()+Time(10*Second))
	if !ok {
		t.Fatal("majority side did not elect")
	}
	var newLeader uint64
	for id, h := range g.hosts {
		if !side[id] && h.Node.State() == raft.Leader {
			newLeader = id
		}
	}

	// Commit on the majority side during the partition.
	nl := g.Host(newLeader)
	if err := nl.Node.Propose([]byte("majority-entry")); err != nil {
		t.Fatal(err)
	}
	nl.Pump()
	sim.RunFor(500 * Millisecond)
	if nl.Node.CommitIndex() == 0 {
		t.Fatal("majority could not commit during partition")
	}

	// Heal: the old leader must step down and adopt the new log.
	g.LinkFilter = nil
	sim.RunFor(3 * Second)
	oldHost := g.Host(old)
	if oldHost.Node.State() == raft.Leader && oldHost.Node.Term() <= nl.Node.Term() {
		t.Fatal("stale leader survived healing")
	}
	found := false
	for _, e := range oldHost.Node.Log() {
		if string(e.Data) == "majority-entry" {
			found = true
		}
	}
	if !found {
		t.Fatal("healed minority did not adopt the majority's log")
	}
}

func TestMinorityCannotCommitDuringPartition(t *testing.T) {
	sim := New()
	g := newGroupCluster(t, sim, 5, 50, 100, 15*Millisecond, 22)
	if !sim.RunWhileNot(func() bool { return g.Leader() != raft.None }, Time(5*Second)) {
		t.Fatal("no leader")
	}
	sim.RunFor(200 * Millisecond)
	old := g.Leader()
	var partner uint64
	for id := range g.hosts {
		if id != old {
			partner = id
			break
		}
	}
	g.Partition(map[uint64]bool{old: true, partner: true})

	lead := g.Host(old)
	before := lead.Node.CommitIndex()
	if err := lead.Node.Propose([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	lead.Pump()
	sim.RunFor(2 * Second)
	if lead.Node.CommitIndex() > before {
		t.Fatal("minority leader committed without a quorum")
	}
}
