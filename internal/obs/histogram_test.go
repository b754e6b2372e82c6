package obs

import "testing"

// TestHistogramBucketBoundaries pins the Prometheus `le` convention:
// an observation exactly equal to an upper bound lands in that bucket,
// and the smallest increment above it spills into the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 10, 100}
	for bi, b := range bounds {
		h := NewHistogram(bounds)
		h.Observe(b)
		cum := h.Cumulative()
		for i, c := range cum {
			want := uint64(0)
			if i >= bi {
				want = 1 // cumulative from the boundary's own bucket up
			}
			if c != want {
				t.Fatalf("Observe(%g): cumulative[%d] = %d, want %d (%v)", b, i, c, want, cum)
			}
		}

		h2 := NewHistogram(bounds)
		h2.Observe(b * 1.0000001)
		cum2 := h2.Cumulative()
		if cum2[bi] != 0 {
			t.Fatalf("Observe(just above %g) landed at or below the boundary: %v", b, cum2)
		}
		if cum2[len(cum2)-1] != 1 {
			t.Fatalf("Observe(just above %g) lost the observation: %v", b, cum2)
		}
	}
	// Below the first bound and above the last (+Inf overflow).
	h := NewHistogram(bounds)
	h.Observe(0.5)
	h.Observe(1e9)
	cum := h.Cumulative()
	if cum[0] != 1 || cum[len(cum)-1] != 2 {
		t.Fatalf("under/overflow cumulative = %v", cum)
	}
	if h.Count() != 2 || h.Sum() != 0.5+1e9 {
		t.Fatalf("count/sum = %d/%g", h.Count(), h.Sum())
	}
	// The shipped bucket sets must keep strictly increasing bounds, or
	// the boundary convention above silently breaks.
	for name, set := range map[string][]float64{
		"LatencyBuckets": LatencyBuckets, "CountBuckets": CountBuckets, "BytesBuckets": BytesBuckets,
	} {
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("%s not strictly increasing at %d: %v", name, i, set)
			}
		}
	}
}
