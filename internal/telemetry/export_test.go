package telemetry

// SetTraceCap resizes the trace ring (minimum 1), dropping buffered
// events, so a test can wrap it without emitting defaultTraceCap events.
func (r *Registry) SetTraceCap(n int) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.traceCap = max(n, 1)
	r.trace = nil
	r.traceNext = 0
}
