package obs

import "math"

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: an observation lands in every bucket whose upper bound is at
// least the observed value, plus the implicit +Inf bucket. Buckets are
// fixed at construction so aggregation across requests and rendering
// in the text exposition format need no rebucketing.
//
// A Histogram is not internally locked; the Registry serializes all
// access to the histograms it owns.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
}

// NewHistogram builds an empty histogram over the given upper bounds,
// which must be strictly increasing. An explicit trailing +Inf bound
// is dropped (it is always implicit).
func NewHistogram(bounds []float64) *Histogram {
	for len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		bounds = bounds[:len(bounds)-1]
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Bounds returns the finite upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Cumulative returns the cumulative bucket counts, one per finite
// bound plus the final +Inf bucket (which always equals Count).
func (h *Histogram) Cumulative() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}

// clone deep-copies the histogram (for lock-free rendering).
func (h *Histogram) clone() *Histogram {
	return &Histogram{
		bounds: h.bounds, // immutable after construction
		counts: append([]uint64(nil), h.counts...),
		sum:    h.sum,
		count:  h.count,
	}
}

// Default bucket sets for the three histogram families the Registry
// exports. The ranges cover the paper's workloads with headroom: phase
// latencies from tens of microseconds (parse on a kernel) to seconds
// (hydflo-sized sweeps), placed-message counts spanning Fig. 10(a)'s
// 2..52 column range, and per-compile communication volumes from a
// single ghost cell to hundreds of megabytes.
var (
	// LatencyBuckets are seconds.
	LatencyBuckets = []float64{
		100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3,
		50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10,
	}
	// CountBuckets are dimensionless counts (messages, groups).
	CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// BytesBuckets are payload bytes.
	BytesBuckets = []float64{
		256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
	}
)
