package raft

// IsMember reports whether id is in the node's current configuration.
func (n *Node) IsMember(id uint64) bool { return n.peers[id] }
