// Package prof is the native runtime profiler: fixed-size phase events
// recorded by each engine goroutine into a per-processor ring, folded
// after the run into a NativeProfile — per-superstep per-processor
// timelines, blocked-vs-compute accounting, skew and straggler ranking.
//
// The package imports nothing outside the standard library (time is not
// even needed: events carry nanoseconds the engine stamped), so every
// layer of the observability stack can embed its types without an
// import cycle.
//
// Recording discipline: only communication operations are recorded —
// sends, receive waits, tree waits, reduction legs. Compute time is
// derived at fold time as the gaps between consecutive events on each
// processor (the leading gap from run start, the trailing gap to the
// processor's end mark), attributed to the FOLLOWING event's superstep.
// Compute + blocked therefore tile each processor's wall time by
// construction, and an empty lane is pure compute. Timings are
// excluded from any bit-identity claim: the scheduler decides who
// blocks for how long; only event counts, order, phases and site
// attribution are deterministic.
package prof

import (
	"fmt"
	"sort"
)

// Phase classifies where a native processor's wall time went.
type Phase uint8

const (
	// PhaseCompute is derived at fold time (gaps between events);
	// engines never record it directly.
	PhaseCompute Phase = iota
	// PhaseSend is time blocked handing a payload to a channel.
	PhaseSend
	// PhaseRecvWait is time blocked waiting for a ghost-strip
	// neighbour message.
	PhaseRecvWait
	// PhaseTreeWait is time blocked in a binomial-tree collective leg
	// (broadcast, gather, barrier, condition agreement).
	PhaseTreeWait
	// PhaseSum is time blocked in a distributed-SUM collective
	// (operand gather and total broadcast).
	PhaseSum
)

// String names the phase under the vocabulary the issue and the docs
// use.
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseSend:
		return "send"
	case PhaseRecvWait:
		return "recv-wait"
	case PhaseTreeWait:
		return "tree-wait"
	case PhaseSum:
		return "sum"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Event is one fixed-size profiler record: a communication operation
// on one processor. Start and Dur are nanoseconds relative to the
// engine's run start. Step is the superstep index — the run-global
// execution index of the communication group, matching the simulator's
// attr.Step indices — and Site indexes the profiler's site table (the
// placed group's ID); both are -1 for operations outside any group
// (barriers, condition broadcasts).
type Event struct {
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	Step  int32 `json:"step"`
	Site  int32 `json:"site"`
	Phase Phase `json:"phase"`
}

// Ring is the event buffer of one processor. It starts small and
// doubles — positions preserved, before it would wrap — up to the
// capacity it was built for, so a run pays for the events it records;
// at that capacity Record neither allocates nor blocks: it wraps,
// keeping the newest events and counting the drops. A Ring is
// single-writer (its processor's goroutine); readers must wait for the
// run to finish.
type Ring struct {
	buf  []Event
	mask uint64
	max  int    // the capacity buf grows to
	n    uint64 // total events recorded since Reset
}

// DefaultRingSize is the per-processor event capacity when the caller
// does not choose one: 64Ki events × 32 bytes = 2 MiB per processor if a
// run fills it, enough for every paper benchmark's full run without
// wrapping.
const DefaultRingSize = 1 << 16

// NewRing builds a ring that grows to at least the requested capacity,
// rounded up to a power of two; n <= 0 selects DefaultRingSize.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	c := 1
	for c < n {
		c <<= 1
	}
	first := min(c, 1<<10)
	return &Ring{buf: make([]Event, first), mask: uint64(first - 1), max: c}
}

// Record appends one event, overwriting the oldest when full.
func (r *Ring) Record(ev Event) {
	if r.n == uint64(len(r.buf)) && len(r.buf) < r.max {
		r.buf = append(r.buf, make([]Event, len(r.buf))...)
		r.mask = uint64(len(r.buf) - 1)
	}
	r.buf[r.n&r.mask] = ev
	r.n++
}

// Reset forgets every recorded event (the buffer, as far as it has
// grown, is retained).
func (r *Ring) Reset() { r.n = 0 }

// PendingStep is the sentinel a recorder stamps on events whose
// superstep is not yet known — distributed-SUM legs run at the SUM
// statement, before their marker group's position assigns the step
// index. PatchPending resolves them; unresolved sentinels fold as
// unattributed (they count in processor totals, not in any step).
const PendingStep int32 = -2

// PatchPending rewrites the newest contiguous run of PendingStep
// events to the given step and site, stopping at the first event that
// is not pending. Stopping early under-attributes but never
// mis-attributes: a sentinel that another event buried stays
// unattributed rather than joining the wrong superstep.
func (r *Ring) PatchPending(step, site int32) {
	lo := uint64(0)
	if r.n > uint64(len(r.buf)) {
		lo = r.n - uint64(len(r.buf))
	}
	for seq := r.n; seq > lo; seq-- {
		ev := &r.buf[(seq-1)&r.mask]
		if ev.Step != PendingStep {
			return
		}
		ev.Step, ev.Site = step, site
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.n > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.n)
}

// Dropped returns how many events were overwritten by wraparound.
func (r *Ring) Dropped() uint64 {
	if r.n > uint64(len(r.buf)) {
		return r.n - uint64(len(r.buf))
	}
	return 0
}

// Snapshot copies the retained events oldest-first (recording order,
// which is also chronological: each processor records sequentially).
func (r *Ring) Snapshot() []Event {
	n := r.Len()
	out := make([]Event, 0, n)
	if r.n > uint64(len(r.buf)) {
		head := r.n & r.mask
		out = append(out, r.buf[head:]...)
		out = append(out, r.buf[:head]...)
		return out
	}
	return append(out, r.buf[:n]...)
}

// ---------------------------------------------------------------------
// Folding: rings → NativeProfile

// StepStat aggregates one superstep across processors. Compute and
// blocked are reported per processor (index = processor number) so the
// skew and straggler accounting — and any timeline rendering — can see
// the distribution, not just the moments.
type StepStat struct {
	// Step is the superstep index (group execution order, run-global).
	Step int32 `json:"step"`
	// Site indexes the profile's site table; -1 when no event of the
	// step carried one.
	Site int32 `json:"site"`
	// Events counts the step's recorded events across processors.
	Events int64 `json:"events"`
	// ComputeSec[p] is the gap time attributed to this step on
	// processor p; BlockedSec[p] the recorded send/wait time.
	ComputeSec []float64 `json:"compute_sec"`
	BlockedSec []float64 `json:"blocked_sec"`
	// MaxComputeSec / MeanComputeSec summarize the compute
	// distribution; their ratio is the step's skew.
	MaxComputeSec  float64 `json:"max_compute_sec"`
	MeanComputeSec float64 `json:"mean_compute_sec"`
	// CommSec is the measured cost of the superstep: the maximum over
	// processors of its blocked time, the native counterpart of the
	// model's L + g·h.
	CommSec float64 `json:"comm_sec"`
}

// ProcStat is one processor's wall-time split. WallSeconds is the
// processor's own end mark, and ComputeSeconds plus the four blocked
// phases tile it exactly (up to ring truncation).
type ProcStat struct {
	Proc            int     `json:"proc"`
	WallSeconds     float64 `json:"wall_seconds"`
	ComputeSeconds  float64 `json:"compute_seconds"`
	SendSeconds     float64 `json:"send_seconds"`
	RecvWaitSeconds float64 `json:"recv_wait_seconds"`
	TreeWaitSeconds float64 `json:"tree_wait_seconds"`
	SumSeconds      float64 `json:"sum_seconds"`
	BlockedSeconds  float64 `json:"blocked_seconds"`
	Events          int     `json:"events"`
	Dropped         uint64  `json:"dropped,omitempty"`
	// StragglerSteps counts the supersteps where this processor had
	// the maximum compute time — the straggler ranking key.
	StragglerSteps int `json:"straggler_steps"`
}

// RunStats is the one record of what a native run moved and how long
// it took; native.Stats is this type. The JSON names are the wire names
// of gcaod's /compile response. What a profiled run measured beyond it
// — skew, blocked time — stays on the run's NativeProfile and is read
// from there.
type RunStats struct {
	// Procs is the logical processor (goroutine) count.
	Procs int `json:"procs"`
	// Messages counts payload-bearing channel transfers (each message
	// once, at the sender); Bytes counts the delivered element payload
	// (8 bytes per float64), excluding protocol framing.
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes_moved"`
	// WireBytes counts every float64 word actually sent per hop —
	// payload, validity bitmaps and framing included — so it is the
	// bytes-on-the-wire figure to compare against the modeled ledger.
	WireBytes int64 `json:"wire_bytes"`
	// Hops counts the tree messages collectives moved (gather ascents,
	// broadcast descents, value broadcasts); the critical path of one
	// collective is ceil(log2 P) of them.
	Hops int64 `json:"collective_hops"`
	// AllocBytes counts payload-buffer bytes the message fabric
	// allocated because no recycled buffer fit; zero in steady state.
	AllocBytes int64 `json:"alloc_bytes"`
	// Collectives counts executed communication groups; Barriers the
	// full synchronization barriers (replicated-array stores).
	Collectives int64 `json:"collectives"`
	Barriers    int64 `json:"barriers"`
	// Ops counts the executed communication operations under the
	// program listing's vocabulary (exchange, broadcast, gather,
	// global-sum).
	Ops map[string]int64 `json:"ops,omitempty"`
	// ElapsedSeconds is the wall clock of the run proper (first
	// goroutine launch through final barrier).
	ElapsedSeconds float64 `json:"seconds"`
}

// NativeProfile is the folded result of one profiled native run.
type NativeProfile struct {
	Procs       int     `json:"procs"`
	WallSeconds float64 `json:"wall_seconds"`
	// Sites is the placement-site table; Event.Site and StepStat.Site
	// index it.
	Sites []string   `json:"sites"`
	Steps []StepStat `json:"steps"`
	// ProcTotals has one entry per processor, in processor order.
	ProcTotals []ProcStat `json:"proc_totals"`
	// SkewRatio is Σ_s max_p compute(s,p) / Σ_s mean_p compute(s,p):
	// 1.0 is a perfectly balanced run, 2.0 means the critical path
	// spends twice the average processor's compute per superstep.
	SkewRatio float64 `json:"skew_ratio"`
	// ComputeSeconds / BlockedSeconds are totals across processors.
	ComputeSeconds float64 `json:"compute_seconds"`
	BlockedSeconds float64 `json:"blocked_seconds"`
	// Stragglers ranks processors by StragglerSteps, worst first.
	Stragglers []int `json:"stragglers,omitempty"`
	// Truncated marks a profile where at least one ring wrapped; gap
	// derivation is then incomplete and per-step stats undercount.
	Truncated bool `json:"truncated,omitempty"`
	// Events holds each processor's chronological event stream. It is
	// excluded from JSON (it dwarfs the aggregates) but kept in memory
	// so trace exporters can render per-processor lanes.
	Events [][]Event `json:"-"`
}

// Fold builds the profile from each processor's ring, end mark
// (nanoseconds since run start, when the goroutine finished) and the
// site table. Rings and ends must have one entry per processor.
func Fold(sites []string, rings []*Ring, endNS []int64, wallNS int64) *NativeProfile {
	p := &NativeProfile{
		Procs:       len(rings),
		WallSeconds: float64(wallNS) / 1e9,
		Sites:       sites,
		Events:      make([][]Event, len(rings)),
		ProcTotals:  make([]ProcStat, len(rings)),
	}

	// Pass 1: snapshot streams, find the step count.
	maxStep := int32(-1)
	for q, r := range rings {
		evs := r.Snapshot()
		p.Events[q] = evs
		if r.Dropped() > 0 {
			p.Truncated = true
		}
		for _, ev := range evs {
			if ev.Step > maxStep {
				maxStep = ev.Step
			}
		}
	}
	steps := int(maxStep) + 1
	p.Steps = make([]StepStat, steps)
	for s := range p.Steps {
		p.Steps[s] = StepStat{
			Step:       int32(s),
			Site:       -1,
			ComputeSec: make([]float64, len(rings)),
			BlockedSec: make([]float64, len(rings)),
		}
	}

	// Pass 2: per processor, walk the stream deriving compute gaps and
	// accumulating phase totals. A gap belongs to the FOLLOWING
	// event's step; the trailing gap (last event → end mark) and gaps
	// before step -1 events count only in the processor totals.
	for q, evs := range p.Events {
		ps := &p.ProcTotals[q]
		ps.Proc = q
		ps.Events = len(evs)
		ps.Dropped = rings[q].Dropped()
		ps.WallSeconds = float64(endNS[q]) / 1e9
		cursor := int64(0)
		if ps.Dropped > 0 && len(evs) > 0 {
			// The stream's head was overwritten: gaps before the
			// oldest surviving event are unknowable, so start the
			// cursor there instead of at zero.
			cursor = evs[0].Start
		}
		for _, ev := range evs {
			gap := ev.Start - cursor
			if gap < 0 {
				gap = 0
			}
			cursor = ev.Start + ev.Dur
			gapSec := float64(gap) / 1e9
			durSec := float64(ev.Dur) / 1e9
			ps.ComputeSeconds += gapSec
			switch ev.Phase {
			case PhaseSend:
				ps.SendSeconds += durSec
			case PhaseRecvWait:
				ps.RecvWaitSeconds += durSec
			case PhaseTreeWait:
				ps.TreeWaitSeconds += durSec
			case PhaseSum:
				ps.SumSeconds += durSec
			}
			if ev.Step >= 0 {
				st := &p.Steps[ev.Step]
				st.Events++
				st.ComputeSec[q] += gapSec
				st.BlockedSec[q] += durSec
				if st.Site < 0 && ev.Site >= 0 {
					st.Site = ev.Site
				}
			}
		}
		if tail := endNS[q] - cursor; tail > 0 {
			ps.ComputeSeconds += float64(tail) / 1e9
		}
		ps.BlockedSeconds = ps.SendSeconds + ps.RecvWaitSeconds +
			ps.TreeWaitSeconds + ps.SumSeconds
		p.ComputeSeconds += ps.ComputeSeconds
		p.BlockedSeconds += ps.BlockedSeconds
	}

	// Pass 3: step moments, skew, stragglers.
	var skewNum, skewDen float64
	for s := range p.Steps {
		st := &p.Steps[s]
		maxC, sumC, argmax := 0.0, 0.0, 0
		for q, c := range st.ComputeSec {
			sumC += c
			if c > maxC {
				maxC, argmax = c, q
			}
			if b := st.BlockedSec[q]; b > st.CommSec {
				st.CommSec = b
			}
		}
		st.MaxComputeSec = maxC
		st.MeanComputeSec = sumC / float64(len(rings))
		if maxC > 0 {
			p.ProcTotals[argmax].StragglerSteps++
		}
		skewNum += st.MaxComputeSec
		skewDen += st.MeanComputeSec
	}
	if skewDen > 0 {
		p.SkewRatio = skewNum / skewDen
	} else {
		p.SkewRatio = 1
	}
	p.Stragglers = make([]int, len(rings))
	for q := range p.Stragglers {
		p.Stragglers[q] = q
	}
	sort.SliceStable(p.Stragglers, func(i, j int) bool {
		return p.ProcTotals[p.Stragglers[i]].StragglerSteps >
			p.ProcTotals[p.Stragglers[j]].StragglerSteps
	})
	return p
}

// SiteName resolves a site index against the table; -1 and
// out-of-range render as "?".
func (p *NativeProfile) SiteName(site int32) string {
	if site < 0 || int(site) >= len(p.Sites) {
		return "?"
	}
	return p.Sites[site]
}
