// Package heapsize is the one rule every cached structure counts its
// heap by: a length or capacity times the size of an element, summed
// where the structure is made. A count is what a value keeps alive, not
// what building it allocated and dropped; the collector's size classes
// and a map's spare slots are not modelled.
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
