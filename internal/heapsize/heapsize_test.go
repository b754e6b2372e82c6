package heapsize

import "testing"

// TestSlabGrowth: past the first chunk, which holds what Expect said, every
// chunk holds a quarter of that, so a slab whose count fell short starts a
// chunk for each quarter of the count it is short, not one for every four
// values once its chunks have shrunk.
func TestSlabGrowth(t *testing.T) {
	var count int64
	var s Slab[int]
	s.Expect(64, &count)
	for range 64 + 2*16 + 1 {
		s.New()
	}
	if want := Array[int](64 + 3*16); count != want {
		t.Errorf("97 values from a slab expecting 64 took %d bytes of chunks, want %d: the first and three of 16", count, want)
	}
}
