// Package bound computes a per-program communication lower bound from
// the communication analysis alone — no placement is consulted — in
// the spirit of the memory-independent lower bounds of Christ, Demmel,
// Knight et al.: a floor on the bytes that must cross processor
// boundaries under the given distribution, valid for every placement
// the compiler can produce. Dividing a placement's measured (or
// estimated) traffic by the bound yields its optimality-gap ratio, the
// quantity the benchmark dashboard tracks across revisions.
//
// # Derivation
//
// Every non-local reference yields a communication entry whose legal
// placements are its dominator-path candidate positions (§4.4 of the
// paper); all three compiler versions, the exhaustive optimal search,
// and any future strategy choose from that set. Placing an entry at
// candidate c costs at least execs(c)·payload(level(c)) bytes, where
// execs is the trip product of the loops enclosing c and payload the
// per-exchange message volume at c's vectorization level. The entry's
// individual floor is therefore the minimum of that product over its
// candidates.
//
// Entries do not contribute independently: redundancy elimination and
// subset elimination can serve one entry's data with another's
// traffic, but only ever with traffic of the same array — Available
// Section Descriptors are per-array, so cross-array subsumption is
// impossible. Reductions form a separate channel: they move
// combining-tree partial results, never array sections, so no data
// exchange can absorb them (and vice versa). Hence entries are
// grouped by (array, channel) where channel is "data"
// (shift/broadcast/general) or "sum" (reductions), and each group
// contributes the MINIMUM floor of its members once: whatever the
// placement, the first exchange actually executed for that group pays
// at least the cheapest member's floor.
//
// # When the bound is loose (deliberately)
//
//   - A group with several non-overlapping entries (e.g. a left and a
//     right ghost strip of one array) is counted once, not twice,
//     because wide strips can overlap and trimming could then serve
//     one from the other. Soundness is kept; tightness is lost.
//   - Per-exchange payloads round DOWN (floor of the average boundary
//     band, floor of per-processor local extents), where the analytic
//     estimator rounds up, so the bound never exceeds what the
//     estimator or the simulator charges on uneven block boundaries.
//   - Loops with non-constant bounds make executions and payloads
//     unknowable at compile time; affected candidates (or entries)
//     contribute zero rather than a guess.
//   - On a single processor nothing ever crosses a boundary and the
//     bound is exactly zero.
//
// The soundness obligation — bound ≤ simulated ledger bytes and
// bound ≤ estimated bytes for every benchmark × version and for the
// random-program corpus — is enforced by tests in internal/bench.
package bound

import (
	"sort"

	"gcao/internal/asd"
	"gcao/internal/core"
	"gcao/internal/sem"
)

// Term is one (array, channel) group's contribution to the bound.
type Term struct {
	// Array is the distributed array whose traffic the term floors.
	Array string `json:"array"`
	// Channel is "data" for section-moving communication (NNC,
	// broadcast, general) or "sum" for reduction partials.
	Channel string `json:"channel"`
	// Bytes is the group floor: the cheapest member entry's minimal
	// executions × payload over its candidate placements.
	Bytes float64 `json:"bytes"`
	// Entries counts the communication entries sharing this floor.
	Entries int `json:"entries"`
	// Level and Execs describe the candidate achieving the floor: the
	// vectorization level and the number of times it executes.
	Level int     `json:"level"`
	Execs float64 `json:"execs"`
}

// Bound is the program's communication lower bound.
type Bound struct {
	// TotalBytes is the sum of the per-group floors: no placement of
	// this analysis moves fewer bytes.
	TotalBytes float64 `json:"total_bytes"`
	// Procs is the processor count the bound was derived for.
	Procs int `json:"procs"`
	// Terms lists the per-(array, channel) contributions, sorted by
	// array then channel.
	Terms []Term `json:"terms,omitempty"`
}

// Compute derives the lower bound of an analyzed routine. Unknowable
// quantities degrade the bound toward zero, never upward, so the
// result is sound for every placement strategy.
func Compute(a *core.Analysis) Bound {
	p := a.Unit.Grid.NumProcs()
	out := Bound{Procs: p}
	if p <= 1 {
		return out // a single processor never communicates
	}
	type groupKey struct{ array, channel string }
	type groupMin struct {
		bytes   float64
		level   int
		execs   float64
		entries int
		found   bool
	}
	groups := map[groupKey]*groupMin{}
	for _, e := range a.CommEntries() {
		channel := "data"
		if e.Kind == core.KindReduce {
			channel = "sum"
		}
		key := groupKey{e.Array, channel}
		g := groups[key]
		if g == nil {
			g = &groupMin{}
			groups[key] = g
		}
		g.entries++
		bytes, level, execs, ok := entryFloor(a, e)
		if !ok {
			// An entry whose floor is unknowable could, for all we can
			// prove, be served for free — the whole group's floor
			// collapses to zero.
			g.bytes, g.found = 0, true
			continue
		}
		if !g.found || bytes < g.bytes {
			g.bytes, g.level, g.execs, g.found = bytes, level, execs, true
		}
	}
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].array != keys[j].array {
			return keys[i].array < keys[j].array
		}
		return keys[i].channel < keys[j].channel
	})
	for _, k := range keys {
		g := groups[k]
		out.Terms = append(out.Terms, Term{
			Array: k.array, Channel: k.channel,
			Bytes: g.bytes, Entries: g.entries,
			Level: g.level, Execs: g.execs,
		})
		out.TotalBytes += g.bytes
	}
	return out
}

// entryFloor returns the minimum over the entry's candidate positions
// of executions × payload. ok is false when every candidate is
// unknowable (symbolic loop bounds all the way down).
func entryFloor(a *core.Analysis, e *core.Entry) (bytes float64, level int, execs float64, ok bool) {
	cands := e.Candidates
	if len(cands) == 0 {
		cands = []core.Position{e.Latest}
	}
	for _, c := range cands {
		if !c.Valid() {
			continue
		}
		ex, exOK := positionExecs(a, c)
		if !exOK {
			continue
		}
		lv := c.Level()
		pay, payOK := payloadFloor(a, e, lv)
		if !payOK {
			continue
		}
		total := ex * float64(pay)
		if !ok || total < bytes {
			bytes, level, execs, ok = total, lv, ex, true
		}
	}
	return bytes, level, execs, ok
}

// positionExecs is the trip product of the loops enclosing a position.
func positionExecs(a *core.Analysis, p core.Position) (float64, bool) {
	execs := 1.0
	for l := p.Block.Loop; l != nil; l = l.Parent {
		trip, ok := a.LoopTrip(l)
		if !ok {
			return 0, false
		}
		if trip <= 0 {
			return 0, true // the position never executes
		}
		execs *= float64(trip)
	}
	return execs, true
}

// payloadFloor is the guaranteed per-exchange byte volume of an entry
// vectorized to the given level. It mirrors the analytic estimator's
// payload model but rounds every partition-dependent quantity DOWN, so
// the floor never exceeds what the estimator or the simulator charges.
func payloadFloor(a *core.Analysis, e *core.Entry, level int) (int, bool) {
	arr := a.Unit.Arrays[e.Array]
	if arr == nil {
		return 0, false
	}
	switch e.Kind {
	case core.KindReduce:
		// One partial result must reach the combining tree.
		return arr.ElemBytes(), true
	case core.KindShift:
		sec := e.SectionAt(a, level)
		rows := stripRowsFloor(a, e, arr, sec)
		bytes := rows * arr.ElemBytes()
		for di, d := range sec.Dims {
			if gridDimOf(arr, di) == e.Map.GridDim && arr.Dist != nil && arr.Dist.Dims[di].Kind != 0 {
				continue // the shifted dimension contributes the strip rows
			}
			n, ok := d.Count()
			if !ok {
				return 0, false
			}
			// A distributed dimension contributes at most its local
			// part; floor, where the estimator ceils.
			if arr.Dist != nil && arr.Dist.Dims[di].Kind != 0 {
				g := arr.Dist.Grid.Shape[arr.Dist.Dims[di].GridDim]
				n = n / g
			}
			if n < 0 {
				n = 0
			}
			bytes *= n
		}
		return bytes, true
	default: // broadcast / general: the whole section must leave its owners
		n, ok := e.SectionAt(a, level).NumElems()
		if !ok {
			return 0, false
		}
		return n * arr.ElemBytes(), true
	}
}

// stripRowsFloor counts the shifted-dimension rows one ghost exchange
// is guaranteed to carry: the floor, over neighbour pairs, of the
// average intersection of the section with each partition-boundary
// band. Symbolic bounds floor to zero (not the mapping width — the
// section might dodge every boundary).
func stripRowsFloor(a *core.Analysis, e *core.Entry, arr *sem.Array, sec asd.SymSection) int {
	ad := -1
	for k := range arr.Lo {
		if gridDimOf(arr, k) == e.Map.GridDim {
			ad = k
			break
		}
	}
	if ad < 0 || ad >= len(sec.Dims) || arr.Dist == nil {
		return 0
	}
	lo, ok1 := sec.Dims[ad].Lo.IsConst()
	hi, ok2 := sec.Dims[ad].Hi.IsConst()
	if !ok1 || !ok2 {
		return 0
	}
	shape := a.Unit.Grid.Shape[e.Map.GridDim]
	if shape <= 1 {
		return 0
	}
	total, pairs := 0, 0
	for c := 0; c < shape; c++ {
		blo, bhi, ok := arr.Dist.LocalRange(ad, c)
		if !ok {
			continue
		}
		var bandLo, bandHi int
		if e.Map.Sign > 0 {
			if c == 0 {
				continue // no lower neighbour to send to
			}
			bandLo, bandHi = blo, min(blo+e.Map.Width-1, bhi)
		} else {
			if c == shape-1 {
				continue // no upper neighbour
			}
			bandLo, bandHi = max(bhi-e.Map.Width+1, blo), bhi
		}
		pairs++
		l, h := max(bandLo, lo), min(bandHi, hi)
		if l <= h {
			total += h - l + 1
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / pairs
}

// gridDimOf returns the grid dimension an array dimension is
// distributed onto, or −1.
func gridDimOf(arr *sem.Array, dim int) int {
	if arr.Dist == nil || arr.Dist.Dims[dim].Kind == 0 {
		return -1
	}
	return arr.Dist.Dims[dim].GridDim
}
