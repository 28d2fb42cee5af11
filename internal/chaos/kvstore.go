package chaos

import (
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/raft"
)

// kvStore is the raft-kv target's fixture: a replicated key-value state
// machine, the canonical consensus application. It exercises the full
// raft contract — commands enter via Propose, replicas apply committed
// entries in order, and snapshots capture/restore the state for log
// compaction and slow-follower catch-up. It is driven from the world's
// simulator goroutine only.
type kvStore struct {
	data    map[string]string
	applied uint64
}

// kvOp is one state-machine command; the only kind is "set".
type kvOp struct {
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// encodeSet builds the log-entry payload of a set command.
func encodeSet(key, value string) []byte {
	b, err := json.Marshal(kvOp{Kind: "set", Key: key, Value: value})
	if err != nil {
		panic(err) // three string fields cannot fail to marshal
	}
	return b
}

func newKVStore() *kvStore {
	return &kvStore{data: make(map[string]string)}
}

// Apply consumes one committed entry (in log order). Non-normal entries
// and undecodable payloads are ignored, matching a state machine that
// shares the log with other concerns.
func (s *kvStore) Apply(e raft.Entry) {
	if e.Type != raft.EntryNormal || len(e.Data) == 0 {
		return
	}
	var op kvOp
	if err := json.Unmarshal(e.Data, &op); err != nil {
		return
	}
	if e.Index <= s.applied {
		return // replay protection
	}
	s.applied = e.Index
	if op.Kind == "set" {
		s.data[op.Key] = op.Value
	}
}

// kvSnapshot is the serialized form for raft snapshots.
type kvSnapshot struct {
	Applied uint64            `json:"applied"`
	Data    map[string]string `json:"data"`
}

// Snapshot serializes the full state; it is the raft.Config
// SnapshotState callback.
func (s *kvStore) Snapshot() []byte {
	b, err := json.Marshal(kvSnapshot{Applied: s.applied, Data: s.data})
	if err != nil {
		panic(err) // map[string]string cannot fail to marshal
	}
	return b
}

// Restore replaces the state with a Snapshot payload (as delivered by
// raft.Ready.InstalledSnapshot).
func (s *kvStore) Restore(data []byte) error {
	var st kvSnapshot
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("chaos: kv restore: %w", err)
	}
	s.applied = st.Applied
	s.data = st.Data
	if s.data == nil {
		s.data = make(map[string]string)
	}
	return nil
}

// kvEqual reports whether two replicas hold identical state.
func kvEqual(a, b *kvStore) bool { return maps.Equal(a.data, b.data) }
