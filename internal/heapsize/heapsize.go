// Package heapsize is the one rule every cached structure counts its
// heap by: a length or capacity times the size of an element, summed
// where the structure is made. A count is what a value keeps alive, not
// what building it allocated and dropped; the collector's size classes
// and a map's spare slots are not modelled, but a slab's unused tail is.
package heapsize

import "unsafe"

// Slice returns the bytes of a slice's array: its capacity times the size
// of an element.
func Slice[T any](s []T) int64 { return Array[T](cap(s)) }

// Array returns the bytes of an array of n elements of type T.
func Array[T any](n int) int64 { return int64(n) * int64(unsafe.Sizeof(*new(T))) }

// Map returns the bytes of a map's entries: its length times the size of
// a key and a value.
func Map[K comparable, V any](m map[K]V) int64 {
	return int64(len(m)) * int64(unsafe.Sizeof(*new(K))+unsafe.Sizeof(*new(V)))
}

// Of returns the size of one value of x's type.
func Of[T any](x *T) int64 { return int64(unsafe.Sizeof(*x)) }

// Slab hands out values of one type from chunks, an allocation per chunk
// (the idiom of the Go compiler's SSA backend). The first chunk holds what
// Expect said, those after it a quarter of that, and one starts only when
// the current one cannot hold the request. Every list is capped, so an
// append to it copies it instead of overwriting the next one.
type Slab[T any] struct {
	free  []T    // the current chunk's unused tail
	size  int    // the length of the next chunk
	count *int64 // the structure's count, which every chunk is added to
}

// Expect, called before anything else, sizes the first chunk to hold n
// values; every chunk's bytes are added to *count, its structure's count.
func (s *Slab[T]) Expect(n int, count *int64) { s.size, s.count = n, count }

// New returns a zeroed value from the slab.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// Make returns n zeroed values from the slab; nil for none.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		first := s.free == nil
		s.free = make([]T, max(s.size, n))
		if first {
			s.size = max(s.size/4, 4)
		}
		*s.count += Slice(s.free)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Carve returns a copy of xs in the slab; nil when xs is empty.
func (s *Slab[T]) Carve(xs []T) []T { return append(s.Make(len(xs))[:0], xs...) }

// Pop carves the list (*stack)[mark:] from the slab and pops it off the stack.
func Pop[T any](stack *[]T, mark int, s *Slab[T]) []T {
	out := s.Carve((*stack)[mark:])
	*stack = (*stack)[:mark]
	return out
}

// Take returns the first n values of *slab, capped, and leaves the rest in
// *slab: how a structure whose sizes are counted first carves its tables
// from one allocation of each element type.
func Take[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// TakeLines is Take of n values that keeps the rest of their last 64-byte
// cache line out of *slab: in a slab of shares each rounded up by Lines,
// every share has lines of its own.
func TakeLines[T any](slab *[]T, n int) []T { return Take(slab, Lines[T](n))[:n:n] }

// Lines returns n rounded up to the values of T that fill whole 64-byte
// cache lines: a slab of them is a size class the allocator aligns, so
// slabs written at once by different processors share no line.
func Lines[T any](n int) int {
	per := 64 / gcd(64, int(unsafe.Sizeof(*new(T))))
	return (n + per - 1) / per * per
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
