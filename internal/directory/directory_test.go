package directory

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

func join(id uint64, g, idx int) wire.DirectoryUpdate {
	return wire.DirectoryUpdate{Op: wire.DirJoin, ID: id, Subgroup: g, ShareIndex: idx, Addr: "peer"}
}

func leave(id uint64) wire.DirectoryUpdate {
	return wire.DirectoryUpdate{Op: wire.DirLeave, ID: id}
}

func TestApplyAssignsLowestFreeIndex(t *testing.T) {
	d := New()
	for i, id := range []uint64{1, 2, 3} {
		e, err := d.Apply(join(id, 0, i))
		if err != nil {
			t.Fatal(err)
		}
		if e.ShareIndex != i {
			t.Fatalf("peer %d got index %d, want %d", id, e.ShareIndex, i)
		}
	}
	// Leave the middle peer; the next join must take its freed slot even
	// though the proposer asked for a stale index.
	if _, err := d.Apply(leave(2)); err != nil {
		t.Fatal(err)
	}
	e, err := d.Apply(join(4, 0, 0)) // index 0 is taken: conflict path
	if err != nil {
		t.Fatal(err)
	}
	if e.ShareIndex != 1 {
		t.Fatalf("conflicting join got index %d, want lowest free 1", e.ShareIndex)
	}
	if !d.ShareIndexesSound(0) {
		t.Fatal("share indexes not sound after conflict resolution")
	}
}

func TestLeaveUnknownPeerIsError(t *testing.T) {
	d := New()
	if _, err := d.Apply(leave(9)); err == nil {
		t.Fatal("want error for leave of unknown peer")
	}
}

func TestReplicasConvergeUnderRandomChurn(t *testing.T) {
	// The determinism claim made literal: two replicas applying the same
	// update sequence — including conflicting proposed indices — end with
	// identical checksums, and a third built from a snapshot matches too.
	rng := rand.New(rand.NewSource(42))
	a, b := New(), New()
	live := map[uint64]bool{}
	next := uint64(1)
	for step := 0; step < 500; step++ {
		var u wire.DirectoryUpdate
		if len(live) > 0 && rng.Intn(3) == 0 {
			ids := make([]uint64, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			// Deterministic pick despite map order: smallest id wins.
			min := ids[0]
			for _, id := range ids {
				if id < min {
					min = id
				}
			}
			u = leave(min)
			delete(live, min)
		} else {
			u = join(next, rng.Intn(4), rng.Intn(3)) // often-conflicting proposals
			live[next] = true
			next++
		}
		if _, err := a.Apply(u); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if a.Checksum() != b.Checksum() {
		t.Fatal("replicas diverged under identical update sequences")
	}
	for g := 0; g < 4; g++ { // every subgroup join() above can name
		if !a.ShareIndexesSound(g) {
			t.Fatalf("subgroup %d holds duplicate share indexes", g)
		}
	}
	c, err := DecodeSnapshot(a.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if c.Checksum() != a.Checksum() {
		t.Fatal("snapshot round-trip changed the directory")
	}
}

func TestSubgroupOrderAndNextIndex(t *testing.T) {
	d := New()
	d.Apply(join(5, 1, 2))
	d.Apply(join(6, 1, 0))
	d.Apply(join(7, 1, 1))
	sub := d.Subgroup(1)
	if len(sub) != 3 {
		t.Fatalf("got %d members", len(sub))
	}
	for i, e := range sub {
		if e.ShareIndex != i {
			t.Fatalf("subgroup not in share-index order: %+v", sub)
		}
	}
	if got := d.NextShareIndex(1); got != 3 {
		t.Fatalf("NextShareIndex = %d, want 3", got)
	}
	if got := d.NextShareIndex(0); got != 0 {
		t.Fatalf("NextShareIndex(empty) = %d, want 0", got)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	a, b := New(), New()
	a.Apply(join(1, 0, 0))
	b.Apply(join(1, 1, 0))
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum blind to subgroup field")
	}
}
