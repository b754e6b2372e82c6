package ring

import "testing"

// newestFirst lists the retained values as Newest orders them.
func newestFirst(r *Ring[int]) []int {
	out := make([]int, r.Len())
	for i := range out {
		out[i] = *r.Newest(i)
	}
	return out
}

func TestEvictionOrderAcrossWraps(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7} {
		r := New[int](capacity)
		for v := 0; v < 4*capacity+1; v++ {
			r.Add(v)
			want := min(v+1, capacity)
			got := newestFirst(&r)
			if len(got) != want || r.Cap() != capacity {
				t.Fatalf("cap %d after %d adds: len %d, cap %d", capacity, v+1, len(got), r.Cap())
			}
			for i, x := range got {
				if x != v-i {
					t.Fatalf("cap %d after %d adds: newest-first %v", capacity, v+1, got)
				}
			}
		}
	}
}

func TestZeroCapacityRetainsNothing(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		r := New[int](capacity)
		r.Add(1)
		r.Add(2)
		if r.Len() != 0 {
			t.Fatalf("cap %d retained %d values", capacity, r.Len())
		}
	}
}

// TestEvictedSlotIsOverwritten: what an evicted value pointed to is
// unreachable from the ring the moment it is evicted.
func TestEvictedSlotIsOverwritten(t *testing.T) {
	r := New[*int](2)
	first := new(int)
	r.Add(first)
	r.Add(new(int))
	r.Add(new(int))
	for _, p := range r.buf[:cap(r.buf)] {
		if p == first {
			t.Fatal("the evicted pointer is still in the backing array")
		}
	}
}
