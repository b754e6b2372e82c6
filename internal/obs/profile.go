package obs

// CommProfile records what the superstep stream (attr.Run) does not of
// one functional simulator run: the sender→receiver byte/message matrix
// (the Fig. 10 message accounting, per pair) and the per-processor
// compute/communication/idle time split. The simulator's rendezvous
// leader is its only writer; it is not internally locked.
type CommProfile struct {
	Procs int `json:"procs"`
	// PairBytes[src][dst] and PairMsgs[src][dst] accumulate the
	// point-to-point traffic between processor pairs. Collective
	// operations (reductions, broadcasts) appear in the superstep
	// stream but not in the pair matrix.
	PairBytes [][]int64 `json:"pair_bytes"`
	PairMsgs  [][]int64 `json:"pair_msgs"`
	// ComputeSec, CommSec and IdleSec split each processor's clock:
	// flop time, message/copy time, and barrier wait time.
	ComputeSec []float64 `json:"compute_seconds,omitempty"`
	CommSec    []float64 `json:"comm_seconds,omitempty"`
	IdleSec    []float64 `json:"idle_seconds,omitempty"`
}

// NewCommProfile allocates an empty profile for p processors.
func NewCommProfile(p int) *CommProfile {
	prof := &CommProfile{Procs: p}
	prof.PairBytes = make([][]int64, p)
	prof.PairMsgs = make([][]int64, p)
	for i := 0; i < p; i++ {
		prof.PairBytes[i] = make([]int64, p)
		prof.PairMsgs[i] = make([]int64, p)
	}
	return prof
}

// AddPair charges one point-to-point message of the given payload.
func (p *CommProfile) AddPair(src, dst int, bytes int64) {
	if p == nil || src < 0 || dst < 0 || src >= p.Procs || dst >= p.Procs {
		return
	}
	p.PairBytes[src][dst] += bytes
	p.PairMsgs[src][dst]++
}

// MaxPairBytes returns the largest sender→receiver byte count, the
// heatmap normalizer.
func (p *CommProfile) MaxPairBytes() int64 {
	if p == nil {
		return 0
	}
	var m int64
	for _, row := range p.PairBytes {
		for _, b := range row {
			if b > m {
				m = b
			}
		}
	}
	return m
}
