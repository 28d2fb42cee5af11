// Package directory is the replicated peer directory of the
// continuous-churn control plane (DESIGN.md §14): the deterministic
// state machine every FedAvg-layer member applies directory log entries
// to. An entry (wire.DirectoryUpdate, KindDirectory frames) records a
// peer's id, address, subgroup and share index; joins and leaves are
// proposed through the FedAvg-layer Raft leader, so all replicas see
// the same update sequence and Apply is a pure function of it — equal
// logs yield equal directories, which the chaos directory-convergence
// invariant checks via Checksum.
//
// Share indices are the k-out-of-n replica slots of package secretshare:
// within a subgroup every live peer must hold a distinct index and the
// set of live indices must cover all n shares (CoversAllShares). The
// directory owns the assignment: a join takes the proposer's index if
// it is still free, otherwise the lowest free index — both sides of
// that rule are deterministic, so replicas agree even when concurrent
// proposals raced at the leader.
package directory

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/wire"
)

// Entry is one directory row: a live peer's registration.
type Entry struct {
	// ID is the peer's global id (its raft node id in both layers).
	ID uint64
	// Addr is the peer's dialable address.
	Addr string
	// Subgroup is the subgroup the peer was admitted to.
	Subgroup int
	// ShareIndex is the peer's k-out-of-n replica slot within the
	// subgroup (see secretshare.ReplicaIndices).
	ShareIndex int
}

// Directory is the applied state. The zero value is empty and usable.
// It is not safe for concurrent use; drivers apply committed entries
// from a single goroutine (the simnet event loop, a node's main loop).
type Directory struct {
	entries map[uint64]Entry
	// taken counts, per subgroup, the entries holding each share index:
	// what Apply asks of every join, kept so it need not scan entries.
	taken   map[int]map[int]int
	version uint64
}

// New returns an empty directory.
func New() *Directory {
	return &Directory{entries: make(map[uint64]Entry), taken: make(map[int]map[int]int)}
}

func (d *Directory) init() {
	if d.entries == nil {
		d.entries = make(map[uint64]Entry)
		d.taken = make(map[int]map[int]int)
	}
}

// put registers e, replacing nothing: its id must be free.
func (d *Directory) put(e Entry) {
	d.entries[e.ID] = e
	if d.taken[e.Subgroup] == nil {
		d.taken[e.Subgroup] = make(map[int]int)
	}
	d.taken[e.Subgroup][e.ShareIndex]++
}

// drop unregisters id and returns the entry it held.
func (d *Directory) drop(id uint64) (Entry, bool) {
	e, ok := d.entries[id]
	if !ok {
		return Entry{}, false
	}
	delete(d.entries, id)
	d.taken[e.Subgroup][e.ShareIndex]--
	return e, true
}

// Version counts applied updates — a cheap staleness probe.
func (d *Directory) Version() uint64 { return d.version }

// Len returns the number of registered peers.
func (d *Directory) Len() int { return len(d.entries) }

// Lookup returns the entry for id and whether it is registered.
func (d *Directory) Lookup(id uint64) (Entry, bool) {
	e, ok := d.entries[id]
	return e, ok
}

// Apply applies one committed update and returns the resulting entry
// (the released entry for a leave). Joins are idempotent re-registrations
// when the id is already present (the entry is replaced; its old share
// index is released first); leaves of unknown ids are errors — a leader
// never proposes one, so seeing it means divergence.
func (d *Directory) Apply(u wire.DirectoryUpdate) (Entry, error) {
	d.init()
	switch u.Op {
	case wire.DirJoin:
		d.drop(u.ID) // re-registration releases the old slot first
		e := Entry{ID: u.ID, Addr: u.Addr, Subgroup: u.Subgroup, ShareIndex: u.ShareIndex}
		if e.ShareIndex < 0 || d.taken[u.Subgroup][e.ShareIndex] > 0 {
			e.ShareIndex = d.NextShareIndex(u.Subgroup)
		}
		d.put(e)
		d.version++
		return e, nil
	case wire.DirLeave:
		e, ok := d.drop(u.ID)
		if !ok {
			return Entry{}, fmt.Errorf("directory: leave for unknown peer %d", u.ID)
		}
		d.version++
		return e, nil
	default:
		return Entry{}, fmt.Errorf("directory: unknown op %d", u.Op)
	}
}

// NextShareIndex returns the lowest share index not currently held in
// the subgroup — the deterministic assignment rule for joins.
func (d *Directory) NextShareIndex(subgroup int) int {
	t := d.taken[subgroup]
	i := 0
	for t[i] > 0 {
		i++
	}
	return i
}

// Members returns every entry in ascending id order.
func (d *Directory) Members() []Entry {
	out := make([]Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Subgroup returns the subgroup's entries in ascending share-index
// order — the order SAC rounds index peers by.
func (d *Directory) Subgroup(g int) []Entry {
	var out []Entry
	for _, e := range d.entries {
		if e.Subgroup == g {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShareIndex < out[j].ShareIndex })
	return out
}

// ShareIndexesSound reports whether no two peers of subgroup g hold the
// same share index — the share-index-soundness invariant. (Apply
// maintains it by construction; the checker re-derives it from state so
// a bug cannot hide behind its own bookkeeping.)
func (d *Directory) ShareIndexesSound(g int) bool {
	seen := make(map[int]bool)
	for _, e := range d.entries {
		if e.Subgroup != g {
			continue
		}
		if seen[e.ShareIndex] {
			return false
		}
		seen[e.ShareIndex] = true
	}
	return true
}

// Checksum fingerprints the directory state: equal directories hash
// equal, and replicas that diverged in any entry field hash apart.
// Entries are folded in ascending id order so the hash is independent
// of map iteration.
func (d *Directory) Checksum() uint64 {
	h := fnv.New64a()
	for _, e := range d.Members() {
		var buf [8]byte
		put := func(v uint64) {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		put(e.ID)
		put(uint64(int64(e.Subgroup)))
		put(uint64(int64(e.ShareIndex)))
		h.Write([]byte(e.Addr))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// EncodeSnapshot serializes the directory as a sequence of join frames
// in ascending id order — the state-transfer format for raft snapshots
// and new-member catch-up. Decoding with DecodeSnapshot reproduces the
// directory exactly (version excepted; a snapshot is a fresh history).
func (d *Directory) EncodeSnapshot() []byte {
	var out []byte
	for _, e := range d.Members() {
		out = wire.AppendDirectoryFrame(out, wire.DirectoryUpdate{
			Op: wire.DirJoin, ID: e.ID, Subgroup: e.Subgroup, ShareIndex: e.ShareIndex, Addr: e.Addr,
		})
	}
	return out
}

// DecodeSnapshot rebuilds a directory from EncodeSnapshot output.
func DecodeSnapshot(b []byte) (*Directory, error) {
	d := New()
	for len(b) > 0 {
		kind, n, err := wire.ParseHeader(b)
		if err != nil {
			return nil, err
		}
		if kind != wire.KindDirectory {
			return nil, fmt.Errorf("directory: snapshot frame kind %s", kind)
		}
		if len(b) < wire.HeaderSize+n {
			return nil, fmt.Errorf("directory: truncated snapshot frame")
		}
		u, err := wire.DecodeDirectoryPayload(b[wire.HeaderSize : wire.HeaderSize+n])
		if err != nil {
			return nil, err
		}
		if _, err := d.Apply(u); err != nil {
			return nil, err
		}
		b = b[wire.HeaderSize+n:]
	}
	return d, nil
}
