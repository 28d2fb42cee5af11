package raft

// IsMember reports whether id is in the node's current configuration.
func (n *Node) IsMember(id uint64) bool { return n.peers[id] }

// LastIndex returns the index of the last entry in the log (including
// the compacted prefix).
func (n *Node) LastIndex() uint64 { return n.lastIndex() }
