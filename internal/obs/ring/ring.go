// Package ring is the fixed-capacity retention ring under the daemon's
// flight recorder and decision log.
package ring

// Ring keeps the newest values added to it, up to its capacity. Add is
// O(1) at any capacity: a full ring overwrites its oldest slot, so
// nothing an evicted value pointed to stays pinned. Not safe for
// concurrent use; its owners hold their own lock.
type Ring[T any] struct {
	buf  []T // grows to max, then wraps
	max  int
	head int // the oldest slot once full; 0 until then
}

// New builds a ring of at most n values; n <= 0 retains nothing.
func New[T any](n int) Ring[T] { return Ring[T]{max: n} }

// Add retains v, evicting the oldest value when full.
func (r *Ring[T]) Add(v T) {
	switch {
	case r.max <= 0:
	case len(r.buf) < r.max:
		r.buf = append(r.buf, v)
	default:
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.max
	}
}

// Len returns the number of retained values, Cap the bound on it.
func (r *Ring[T]) Len() int { return len(r.buf) }
func (r *Ring[T]) Cap() int { return r.max }

// Newest returns the i-th newest retained value, 0 <= i < Len.
func (r *Ring[T]) Newest(i int) *T {
	n := len(r.buf)
	return &r.buf[(r.head+n-1-i)%n]
}
