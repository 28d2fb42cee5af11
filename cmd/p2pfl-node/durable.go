package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/raft"
	"repro/internal/wire"
)

// stateFile is the daemon's durability: the path (-state) of the one
// wire frame (KindRaftState) holding the node's raft.PersistentState.
// The empty path disables it — the node starts fresh and nothing is
// written.
type stateFile string

// open returns the node to run: restored from the file when there is
// one, new from cfg when the file is missing (a first start). A file
// that exists but is not one raft-state frame (a bad magic for a
// foreign format) or does not restore is an error — starting fresh
// over it would forget a vote or committed entries.
func (f stateFile) open(cfg raft.Config) (*raft.Node, error) {
	if f == "" {
		return raft.NewNode(cfg)
	}
	file, err := os.Open(string(f))
	if errors.Is(err, os.ErrNotExist) {
		return raft.NewNode(cfg)
	}
	if err != nil {
		return nil, err
	}
	defer file.Close()
	ps, err := wire.ReadRaftStateFrame(file)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", f, err)
	}
	node, err := raft.Restore(cfg, ps)
	if err != nil {
		return nil, fmt.Errorf("restore from %s: %w", f, err)
	}
	log.Printf("restored durable state: term=%d commit=%d log=%d entries",
		ps.Hard.Term, ps.Hard.Commit, len(ps.Log))
	return node, nil
}

// errPersist marks a Save that failed — the one error of the raft loop
// the daemon cannot outlive: what was to be saved is gone from the node.
var errPersist = errors.New("state file")

// Save is the raft loop's store (raft.Store): it atomically replaces
// the file with ps's frame and returns once that is durable. The frame
// is written to a temporary file in the same directory, synced, and
// renamed over the destination, so a crash mid-write never corrupts the
// previous state; then the directory is synced, because the rename is a
// change to the directory, not to the file, and until the directory's
// own blocks are on disk a power loss can still bring the old name back
// — with a vote or an append the loop has already acknowledged.
func (f stateFile) Save(ps raft.PersistentState) (err error) {
	if f == "" {
		return nil
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", errPersist, err)
		}
	}()
	dir := filepath.Dir(string(f))
	tmp, err := os.CreateTemp(dir, ".raft-state-*")
	if err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(wire.AppendRaftStateFrame(nil, ps)); err != nil {
		tmp.Close()
		return fmt.Errorf("save state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close state: %w", err)
	}
	if err := os.Rename(tmp.Name(), string(f)); err != nil {
		return fmt.Errorf("replace state: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync state directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync state directory: %w", err)
	}
	return nil
}
