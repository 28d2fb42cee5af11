package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/raft"
)

// failingStore is a disk that refuses its failAt-th Save (never, at 0)
// and otherwise keeps the last image like the group's own. It names
// what each Save would have made durable, relative to the image before.
type failingStore struct {
	memStore
	failAt int
	kinds  []string // per Save, refused one included
}

func (s *failingStore) Save(ps raft.PersistentState) error {
	prev := s.image
	kind := "other"
	switch {
	case ps.Hard.VotedFor != raft.None && (ps.Hard.VotedFor != prev.Hard.VotedFor || ps.Hard.Term != prev.Hard.Term):
		kind = "vote"
	case len(ps.Log) > len(prev.Log):
		kind = "append"
	case ps.Hard.Commit > prev.Hard.Commit:
		kind = "commit"
	}
	s.kinds = append(s.kinds, kind)
	if len(s.kinds) == s.failAt {
		return errors.New("no space left on device")
	}
	return s.memStore.Save(ps)
}

// TestHostThatCannotPersistSendsNothing pins "a node that cannot persist
// sends nothing" under virtual time, for a disk that fails on a vote, on
// an append and on a commit: the host goes down inside the Pump that
// found out, with none of that Ready's messages offered to the network;
// the other two carry on; and the host comes back from the last image
// its disk accepted.
func TestHostThatCannotPersistSendsNothing(t *testing.T) {
	const victim = 1
	config := func(seed int64) raft.Config {
		return raft.Config{
			ID: victim, ElectionTickMin: 10, ElectionTickMax: 20, HeartbeatTick: 3,
			Rng: rand.New(rand.NewSource(seed*100 + victim)),
		}
	}
	// world runs the same schedule for every failAt: three hosts elect
	// a leader, which is asked for three entries 20 ms apart. It stops
	// after the event in which the victim's disk failed, or after 300 ms,
	// and returns how many messages the victim had sent before that
	// event and has sent since it began.
	world := func(seed int64, failAt int) (*Sim, *Group, *Host, *failingStore, int64, *int64) {
		sim := New()
		g := newGroupCluster(t, sim, 3, 10, 20, Millisecond, seed)
		h := g.Host(victim)
		disk := &failingStore{memStore: memStore{image: h.Node.Persist()}, failAt: failAt}
		h.Store = disk
		sent := new(int64)
		send := h.Send
		h.Send = func(m raft.Message) {
			*sent++
			send(m)
		}
		for i := 0; i < 3; i++ {
			data := []byte(fmt.Sprintf("entry-%d", i))
			sim.Schedule(100*Millisecond+Duration(i)*20*Millisecond, func() {
				if l := g.Leader(); l != raft.None {
					_ = g.Host(l).Propose(data) // refused: the victim led, and is down
				}
			})
		}
		var before int64
		for !h.Down() && sim.Now() < Time(300*Millisecond) {
			before = *sent
			sim.Step() // never false: a live host's next tick is always queued
		}
		return sim, g, h, disk, before, sent
	}
	for seed := int64(1); seed <= 3; seed++ {
		_, _, _, dry, _, _ := world(seed, 0)
		for _, kind := range []string{"vote", "append", "commit"} {
			failAt := 0
			for i, k := range dry.kinds {
				if k == kind {
					failAt = i + 1
					break
				}
			}
			if failAt == 0 {
				t.Fatalf("seed %d: the victim never saved a %s in %v", seed, kind, dry.kinds)
			}
			sim, g, h, disk, before, sent := world(seed, failAt)
			if got := disk.kinds[len(disk.kinds)-1]; len(disk.kinds) != failAt || got != kind {
				t.Fatalf("seed %d: save %d was to be a %s; the disk saw %d saves, the last a %s", seed, failAt, kind, len(disk.kinds), got)
			}
			if !h.Down() {
				t.Fatalf("seed %d %s: host still up after its disk refused save %d", seed, kind, failAt)
			}
			// world stopped after the event that crashed the host. One
			// event may feed other hosts too — a tick block ticks them all —
			// but the victim's part of it was one input and the Pump that
			// input ended in, so a message the victim sent during it is one
			// of the Ready that was not saved.
			if *sent != before {
				t.Fatalf("seed %d %s: %d messages of the Ready that could not be saved were sent", seed, kind, *sent-before)
			}

			others := func() bool { l := g.Leader(); return l != raft.None && l != victim }
			if !sim.RunWhileNot(others, sim.Now()+Time(2*Second)) {
				t.Fatalf("seed %d %s: the other two elected no leader", seed, kind)
			}
			lead := g.Host(g.Leader())
			if err := lead.Propose([]byte("while-down")); err != nil {
				t.Fatal(err)
			}
			mark := lead.Node.Status().LastIndex
			sim.RunFor(100 * Millisecond)
			for _, id := range g.IDs() {
				if o := g.Host(id); id != victim && (o.Down() || o.Node.CommitIndex() < mark) {
					t.Fatalf("seed %d %s: host %d committed %d of %d with the victim down", seed, kind, id, o.Node.CommitIndex(), mark)
				}
			}

			if err := h.Restart(config(seed)); err == nil {
				t.Fatalf("seed %d %s: Restart read an image back from a disk that is not the group's", seed, kind)
			}
			if err := h.RestartFrom(config(seed), disk.image); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(500 * Millisecond)
			log := h.Node.Log()
			if h.Down() || h.Node.CommitIndex() < mark || string(log[mark-1].Data) != "while-down" {
				t.Fatalf("seed %d %s: restarted host down=%v commit=%d, want the entry at %d", seed, kind, h.Down(), h.Node.CommitIndex(), mark)
			}
		}
	}
}
