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
// that exists but is not one raft-state frame (wire.ErrBadMagic for a
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

// deliver persists node's state and only then hands rd's messages to
// send, as Raft requires: a vote or append must be durable before it
// is acknowledged. A persist error is returned before any message of
// rd is sent. Send errors are dropped — message loss is tolerated,
// raft retries via timeouts.
func (f stateFile) deliver(node *raft.Node, rd raft.Ready, send func(raft.Message) error) error {
	if f != "" && (len(rd.Messages) > 0 || len(rd.Committed) > 0 || rd.InstalledSnapshot != nil) {
		if err := f.save(node.Persist()); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	for _, m := range rd.Messages {
		_ = send(m)
	}
	return nil
}

// save atomically replaces the file with ps's frame: the frame is
// written to a temporary file in the same directory, synced, and
// renamed over the destination, so a crash mid-write never corrupts
// the previous state.
func (f stateFile) save(ps raft.PersistentState) error {
	tmp, err := os.CreateTemp(filepath.Dir(string(f)), ".raft-state-*")
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
	return nil
}
