package runtime

// Owner returns the owning processor of an element (0 for replicated arrays).
func (m *Memory) Owner(name string, idx []int) int { return m.View(name).Owner(idx) }

// Read returns a processor's view of an element, failing on stale
// copies.
func (m *Memory) Read(proc int, name string, idx []int) (float64, error) {
	am := m.View(name)
	s := proc % len(am.Data) // a replicated array's one plane is every processor's
	if off, ok := am.Local(s, idx); ok && am.ValidAt(s, idx) {
		return am.Data[s][off], nil
	}
	return 0, &StaleReadError{Proc: proc, Array: am.Name, Index: append([]int(nil), idx...)}
}

// Write stores an element at its owner and invalidates every other
// processor's copy (the killing semantics that make stale-read
// detection sound).
func (m *Memory) Write(name string, idx []int, v float64) {
	am := m.View(name)
	am.StoreOwner(am.Offset(idx), am.Owner(idx), v)
	am.InvalidateRange(idx, am.Owner(idx), 0, m.P)
}
