package plan

import (
	"math"
	"slices"

	"gcao/internal/runtime"
	"gcao/internal/section"
)

// Schedule is the geometry of one exchange on one processor: per entry,
// in wire order, the runs that the strip it sends to Dst is packed from
// and the strip it receives from Src is unpacked into (Dst and Src are
// the op's Neighbors, -1 past the grid's edge and Dst on a receive-only
// schedule), as ArrayLayout.StripRuns enumerated them when the slots the
// sections read held what key records. A run is in the planes' shared
// stride space, once for both ends: each reads or writes its own plane at
// the offset less its ArrayLayout.Base. A strip is a function of
// (section, sender), so a time loop replays the lists; where the slots
// moved every section rigidly (gravity's planes) translate moves the
// lists with the strips; else build.
type Schedule struct {
	Dst, Src   int
	Ents       []SchedEntry
	built      bool
	key        []int
	send, recv []runtime.Run // back the entries' runs
	dims       []section.Dim // backs the entries' at, Sent and Ghost
}

// SchedEntry is one entry of a schedule: its strips' runs, Off further
// than enumerated (by translations since); Sent and Ghost the strips sent
// and received as sections, what a pack and an unpack test and make valid;
// at its section, unclipped, where the runs are now.
type SchedEntry struct {
	Am              *runtime.ArrayMem
	Send, Recv      []runtime.Run
	Off             int
	Sent, Ghost, at []section.Dim
}

// Schedules holds a schedule per (processor, exchange), in storage
// allocated at once and sized by StripBound: building one allocates
// nothing.
type Schedules struct {
	s  []Schedule
	nx int
}

// NewSchedules returns a native engine's schedules or, with send false,
// a simulator engine's, receiving only.
func (pr *Program) NewSchedules(send bool) Schedules {
	nx, sc := len(pr.Exchanges), runtime.NewScratch(pr.Plan.Layout.MaxRank)
	ss := Schedules{s: make([]Schedule, pr.Plan.Layout.P*nx), nx: nx}
	sizes := make([][5]int, len(ss.s)) // key, entries, dims, sent and received runs
	var total [5]int
	for i := range ss.s {
		op, p, s, n := pr.Exchanges[i%nx], i/nx, &ss.s[i], &sizes[i]
		if s.Dst, s.Src = op.Neighbors(p); !send {
			s.Dst = -1
		}
		n[0], n[1] = len(op.Slots), len(op.Entries)
		for j := range op.Entries {
			es, m := &op.Entries[j], op.Group.Map
			n[2] += 3 * len(es.Lo)
			if s.Dst >= 0 {
				n[3] += es.Lay.StripBound(p, es.ShiftDim, m.Sign, m.Width, es.Step[len(es.Step)-1], sc)
			}
			if s.Src >= 0 {
				n[4] += es.Lay.StripBound(s.Src, es.ShiftDim, m.Sign, m.Width, es.Step[len(es.Step)-1], sc)
			}
		}
		for k := range total {
			total[k] += n[k]
		}
	}
	ints, ents, dims, runs := make([]int, total[0]), make([]SchedEntry, total[1]), make([]section.Dim, total[2]), make([]runtime.Run, total[3]+total[4])
	for i, n := range sizes {
		s := &ss.s[i]
		s.key, ints = ints[:n[0]:n[0]], ints[n[0]:]
		s.Ents, ents = ents[:0:n[1]], ents[n[1]:]
		s.dims, dims = dims[:n[2]:n[2]], dims[n[2]:]
		s.send, s.recv, runs = runs[:0:n[3]], runs[n[3]:n[3]:n[3]+n[4]], runs[n[3]+n[4]:]
	}
	return ss
}

// At returns processor p's schedule of the exchange op with its runs where
// the sections are under fr: replayed while Frame.Unchanged says the slots
// hold what they held, translated where they moved every strip rigidly,
// else built.
func (ss *Schedules) At(fr *Frame, op *CommOp, p int) *Schedule {
	s, _ := ss.at(fr, op, p)
	return s
}

// at is At, naming the way it took for a test to count.
func (ss *Schedules) at(fr *Frame, op *CommOp, p int) (*Schedule, string) {
	s := &ss.s[p*ss.nx+op.xid]
	switch {
	case fr.Unchanged(op.Slots, s.key) && s.built:
		return s, "replayed"
	case s.built && s.translate(fr, op, p):
		return s, "translated"
	}
	s.build(fr, op, p)
	return s, "built"
}

// build enumerates the schedule's lists from scratch.
func (s *Schedule) build(fr *Frame, op *CommOp, p int) {
	m, dims := op.Group.Map, s.dims
	s.built, s.Ents, s.send, s.recv = true, s.Ents[:0], s.send[:0], s.recv[:0]
	for i := range op.Entries {
		es := &op.Entries[i]
		at := dims[:copy(dims, es.Bounds(fr))]
		sec, ok := es.Concrete(fr)
		if !ok {
			continue
		}
		e, from := SchedEntry{Am: fr.View(es.Lay), at: at}, len(s.send)
		var strip section.Section
		if s.Dst >= 0 {
			strip = es.Lay.StripRuns(sec, p, es.ShiftDim, m.Sign, m.Width, fr.Scratch, func(off, n int) {
				s.send = append(s.send, runtime.Run{Off: off, N: n})
			})
		}
		sent, ghost := dims[len(at):], dims[2*len(at):]
		e.Send, e.Sent, from = s.send[from:], sent[:copy(sent, strip.Dims)], len(s.recv)
		if strip = (section.Section{}); s.Src >= 0 {
			strip = es.Lay.StripRuns(sec, s.Src, es.ShiftDim, m.Sign, m.Width, fr.Scratch, func(off, n int) {
				s.recv = append(s.recv, runtime.Run{Off: off, N: n})
			})
		}
		e.Recv, e.Ghost = s.recv[from:], ghost[:copy(ghost, strip.Dims)]
		s.Ents = append(s.Ents, e)
		dims = dims[3*len(at):]
	}
}

// translate moves the schedule to where the sections are now and reports
// whether it could: no entry was or is left out for an unbound slot, and
// each moved its strips rigidly (StripShift). A false return may leave it
// half moved: build starts over.
func (s *Schedule) translate(fr *Frame, op *CommOp, p int) bool {
	if len(s.Ents) != len(op.Entries) || slices.Contains(s.key, math.MinInt) {
		return false
	}
	m := op.Group.Map
	for i := range s.Ents {
		e, es := &s.Ents[i], &op.Entries[i]
		to := es.Bounds(fr)
		doff, ok := 0, true
		if s.Dst >= 0 {
			doff, ok = es.Lay.StripShift(e.at, to, p, es.ShiftDim, m.Sign, m.Width, fr.Scratch)
		}
		if ok && s.Src >= 0 {
			doff, ok = es.Lay.StripShift(e.at, to, s.Src, es.ShiftDim, m.Sign, m.Width, fr.Scratch)
		}
		if !ok {
			return false
		}
		e.Off += doff
		for k := range e.at {
			d := to[k].Lo - e.at[k].Lo
			for _, strip := range [][]section.Dim{e.Sent, e.Ghost} {
				if len(strip) > 0 {
					strip[k].Lo, strip[k].Hi = strip[k].Lo+d, strip[k].Hi+d
				}
			}
		}
		copy(e.at, to)
	}
	return true
}
