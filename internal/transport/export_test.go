package transport

// FreshVectors reports how many receive vectors the mesh has allocated
// because its free list had none that fit — for tests outside the
// package that pin the list's sizing.
func (m *TCPMesh) FreshVectors() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fresh
}
