package transport

// FreshVectors reports how many receive vectors the mesh has allocated
// because its free list had none that fit — for tests outside the
// package that pin the list's sizing.
func (m *TCPMesh) FreshVectors() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fresh
}

// Counter returns the mesh's traffic counter.
func (m *TCPMesh) Counter() *Counter { return m.counter }

// Counter returns the transport's traffic counter.
func (t *RaftTCP) Counter() *Counter { return t.counter }

// SetAddr points id at addr. Tests bind port 0 and exchange the real
// addresses afterwards; it must precede the first Send toward id, whose
// sender keeps the address it was created with.
func (t *RaftTCP) SetAddr(id uint64, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// PeerState returns the circuit state of the sender for peer id, and
// false if no message was ever sent toward that peer.
func (t *RaftTCP) PeerState(id uint64) (CircuitState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.senders[id]
	if !ok {
		return CircuitUp, false
	}
	return CircuitState(s.state.Load()), true
}
