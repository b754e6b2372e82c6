package core

import (
	"cmp"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"strconv"

	"gcao/internal/asd"
	"gcao/internal/cfg"
	"gcao/internal/obs"
)

// Version selects the compilation strategy, matching the paper's three
// measured compiler versions (§5).
type Version int

const (
	// VersionOrig pulls communication into the outermost possible
	// loops (message vectorization to the latest/shallowest position)
	// but performs no redundancy elimination or message scheduling.
	VersionOrig Version = iota
	// VersionRedund adds redundancy elimination via earliest
	// placement — the prior state of the art the paper compares
	// against ("nored" in Fig. 10).
	VersionRedund
	// VersionCombine is the paper's global algorithm: candidate
	// marking, subset elimination, global redundancy elimination, and
	// greedy combining with latest-common placement ("comb").
	VersionCombine
)

func (v Version) String() string {
	switch v {
	case VersionOrig:
		return "orig"
	case VersionRedund:
		return "nored"
	case VersionCombine:
		return "comb"
	}
	return fmt.Sprintf("Version(%d)", int(v))
}

// Options configures placement.
type Options struct {
	Version Version
	// CombineThresholdBytes bounds the combined message size (§4.7);
	// 0 selects the paper's 20 KB.
	CombineThresholdBytes int
	// MaxHullBlowup bounds how much larger the single-descriptor union
	// may be than the two sections combined; 0 selects 1.25.
	MaxHullBlowup float64
	// DisableSubsetElim turns off §4.5 (ablation; §6 notes it must be
	// dropped when overlap matters).
	DisableSubsetElim bool
	// NaiveGreedyOrder processes entries in program order instead of
	// most-constrained-first (ablation).
	NaiveGreedyOrder bool
	// DisableCombining turns off message combining while keeping the
	// global placement machinery (ablation).
	DisableCombining bool
	// PartialRedundancy enables the §7 future-work extension: when an
	// earlier-placed exchange already moves part of a later entry's
	// section (and no definition intervenes), the later message is
	// trimmed to the single-descriptor difference.
	PartialRedundancy bool
	// Trace, when non-nil, receives a human-readable log of the
	// elimination and greedy decisions (the analog of the paper's
	// trace dump to a listing file, Fig. 6).
	Trace io.Writer
	// Obs, when non-nil, receives phase spans, elimination/combining
	// counters and the per-entry placement decision log. When nil the
	// Analysis's own recorder (if any) is used instead.
	Obs *obs.Recorder
}

func (o Options) tracef(format string, args ...any) {
	if o.Trace != nil {
		fmt.Fprintf(o.Trace, format+"\n", args...)
	}
}

func (o Options) threshold() int {
	if o.CombineThresholdBytes > 0 {
		return o.CombineThresholdBytes
	}
	return 20 << 10
}

func (o Options) maxBlowup() float64 {
	if o.MaxHullBlowup > 0 {
		return o.MaxHullBlowup
	}
	return 1.25
}

// Group is one placed communication operation: one runtime call that
// moves the data of all member entries (plus any entries eliminated as
// redundant, which ride along for free).
type Group struct {
	ID       int
	Pos      Position
	Kind     CommKind
	Entries  []*Entry
	Attached []*Entry
	// Map is the union mapping of the members.
	Map asd.Mapping
	// SiteID is the stable placement-site identifier minted after the
	// deterministic group ordering; it is carried through the codegen
	// listing and the runtime comm groups so simulator traffic can be
	// blamed back to this placement decision.
	SiteID string
	// Sources lists the originating source statements of the member
	// and attached entries ("label@line:col"), deduplicated and
	// sorted — the source-level half of the blame record.
	Sources []string
}

func (g *Group) String() string {
	return fmt.Sprintf("group%d@%s %s x%d", g.ID, g.Pos, g.Kind, len(g.Entries))
}

// Result is the outcome of placement under one strategy.
type Result struct {
	Analysis *Analysis
	Version  Version
	Groups   []*Group
	// Redundant maps eliminated entries to their subsumers.
	Redundant map[*Entry]*Entry
	// PosOf maps every live entry to its group's position.
	PosOf map[*Entry]Position
	// Reduced maps entries whose communicated section was trimmed by
	// partial redundancy elimination to the section actually moved.
	Reduced map[*Entry]asd.SymSection

	// subsumedAt records the position at which each redundant entry's
	// subsumption was proven, for the decision log.
	subsumedAt map[*Entry]Position
}

// Counts returns the number of placed communication operations by
// kind — the static call-site counts of Fig. 10(a).
func (r *Result) Counts() map[CommKind]int {
	out := map[CommKind]int{}
	for _, g := range r.Groups {
		out[g.Kind]++
	}
	return out
}

// Count returns the number of placed groups of one kind.
func (r *Result) Count(kind CommKind) int { return r.Counts()[kind] }

// TotalMessages returns the total number of placed groups.
func (r *Result) TotalMessages() int { return len(r.Groups) }

// recorder resolves the effective recorder for one placement: the
// explicit Options recorder wins, else the analysis-wide one.
func (a *Analysis) recorder(opts Options) *obs.Recorder {
	if opts.Obs != nil {
		return opts.Obs
	}
	return a.Obs
}

// tally accumulates one placement's counters by name, without the
// "place.<version>." prefix; Place adds them to the recorder in one go
// when the placement is done. A nil tally — nobody is listening —
// counts nothing and builds no names.
type tally map[string]int64

func (t tally) add(name string, n int64) {
	if t != nil {
		t[name] += n
	}
}

func (t tally) reject(reason string) {
	if t != nil {
		t["combine.rejected."+reason]++
	}
}

// Place runs the selected placement strategy over the analysis.
func (a *Analysis) Place(opts Options) (*Result, error) {
	rec := a.recorder(opts)
	var counts tally
	if rec != nil {
		counts = tally{}
		defer rec.Start("place:" + opts.Version.String())()
	}
	res := &Result{
		Analysis:   a,
		Version:    opts.Version,
		Redundant:  map[*Entry]*Entry{},
		PosOf:      map[*Entry]Position{},
		subsumedAt: map[*Entry]Position{},
	}
	entries := a.CommEntries()
	switch opts.Version {
	case VersionOrig:
		a.placeVectorized(entries, res)
	case VersionRedund:
		a.placeEarliestRedundant(entries, res)
	case VersionCombine:
		a.placeGlobal(entries, res, opts, rec, counts)
	default:
		return nil, fmt.Errorf("core: unknown version %v", opts.Version)
	}
	a.sortGroups(res)
	if opts.PartialRedundancy {
		a.reducePartial(res, opts)
	}
	if rec == nil {
		return res, nil
	}
	counts.add("entries", int64(len(entries)))
	counts.add("redundant", int64(len(res.Redundant)))
	counts.add("groups", int64(len(res.Groups)))
	prefix := "place." + opts.Version.String() + "."
	for name, n := range counts {
		rec.Add(prefix+name, n)
	}
	a.recordDecisions(rec, res)
	rec.Event(slog.LevelInfo, "place.done",
		slog.String("version", opts.Version.String()),
		slog.Int("entries", len(entries)),
		slog.Int("groups", len(res.Groups)),
		slog.Int("redundant", len(res.Redundant)))
	return res, nil
}

// CommSection returns the section an entry actually communicates at a
// level: the partial-redundancy-trimmed section when one was recorded,
// the full section otherwise.
func (r *Result) CommSection(e *Entry, level int) asd.SymSection {
	if sec, ok := r.Reduced[e]; ok {
		return sec
	}
	return e.SectionAt(r.Analysis, level)
}

// reducePartial implements the §7 extension: for every pair of placed
// shift entries of the same array where an earlier (dominating)
// exchange with an at-least-as-wide mapping already moves part of a
// later entry's section — and the data is already fully available at
// the earlier point (its Earliest dominates it), so nothing can stale
// the overlap — the later message shrinks to the single-descriptor
// difference. The functional simulator's validity tracking verifies
// the soundness of every trim the tests exercise.
func (a *Analysis) reducePartial(res *Result, opts Options) {
	res.Reduced = map[*Entry]asd.SymSection{}
	for _, gLate := range res.Groups {
		if gLate.Kind != KindShift {
			continue
		}
		for _, eLate := range gLate.Entries {
			for _, gEarly := range res.Groups {
				if gEarly == gLate || gEarly.Kind != KindShift {
					continue
				}
				if !a.posDominates(gEarly.Pos, gLate.Pos) || gEarly.Pos == gLate.Pos {
					continue
				}
				if gEarly.Pos.Level() != gLate.Pos.Level() {
					continue // sections live in different symbolic bases
				}
				if !a.posDominates(eLate.Earliest, gEarly.Pos) {
					continue // a constraining def intervenes
				}
				for _, eEarly := range gEarly.Entries {
					if eEarly.Array != eLate.Array || !eLate.Map.SubsetOf(eEarly.Map) {
						continue
					}
					late := res.CommSection(eLate, gLate.Pos.Level())
					early := res.CommSection(eEarly, gEarly.Pos.Level())
					diff, ok := late.Subtract(early)
					if !ok {
						continue
					}
					nl, okl := late.NumElems()
					nd, okd := diff.NumElems()
					if okl && okd && nd < nl {
						res.Reduced[eLate] = diff
						opts.tracef("partial-redundancy: %v trimmed from %v to %v (covered by %v)",
							eLate, late, diff, eEarly)
					}
				}
			}
		}
	}
}

func (r *Result) addGroup(pos Position, members, attached []*Entry) *Group {
	g := &Group{ID: len(r.Groups), Pos: pos, Kind: members[0].Kind, Entries: members, Attached: attached, Map: members[0].Map}
	for _, e := range members[1:] {
		g.Map = g.Map.Union(e.Map)
	}
	for _, e := range members {
		r.PosOf[e] = pos
	}
	r.Groups = append(r.Groups, g)
	return g
}

// sortGroups orders groups deterministically by position (dominance,
// then block/slot) for stable output.
func (a *Analysis) sortGroups(res *Result) {
	sort.SliceStable(res.Groups, func(i, j int) bool {
		p, q := res.Groups[i].Pos, res.Groups[j].Pos
		if p.Block != q.Block {
			if a.posDominates(p, q) {
				return true
			}
			if a.posDominates(q, p) {
				return false
			}
			return p.Block.ID < q.Block.ID
		}
		if p.After != q.After {
			return p.After < q.After
		}
		return res.Groups[i].Entries[0].ID < res.Groups[j].Entries[0].ID
	})
	for i, g := range res.Groups {
		g.ID = i
		g.SiteID = res.Version.String() + "/g" + strconv.Itoa(g.ID) + "@" + g.Pos.String() + "/" + g.Kind.String()
		g.Sources = groupSources(g)
	}
}

// groupSources collects the source statements whose references a
// group's exchange serves — members and subsumed attachments alike —
// as "label@line:col" strings, deduplicated and sorted.
func groupSources(g *Group) []string {
	var out []string
	for _, es := range [2][]*Entry{g.Entries, g.Attached} {
		for _, e := range es {
			for _, u := range e.Uses {
				if u.Stmt != nil && u.Stmt.Assign != nil {
					out = append(out, u.Stmt.Label()+"@"+u.Stmt.Assign.Pos.String())
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ---------------------------------------------------------------------
// "orig": message vectorization with single-nest coalescing.

// placeVectorized reproduces the baseline compiler: every reference's
// communication is vectorized to its latest (outermost-possible)
// position, and references of the same array with the same pattern in
// the same statement share one exchange via an overlap region sized to
// the widest offset (classic per-statement message coalescing [15] /
// overlap analysis [30]). No redundancy is detected across statements
// and no messages are combined across arrays — that is exactly what
// the paper's "orig" compiler did.
func (a *Analysis) placeVectorized(entries []*Entry, res *Result) {
	type bucketKey struct {
		stmt  *cfg.Stmt
		array string
		kind  CommKind
		pos   Position
		dim   int
		sign  int
		sig   string
		uniq  int // distinct reductions never share
	}
	order := make([]bucketKey, 0, len(entries))
	buckets := map[bucketKey][]*Entry{}
	for _, e := range entries {
		k := bucketKey{stmt: e.Use().Stmt, array: e.Array, kind: e.Kind, pos: e.Latest}
		switch e.Kind {
		case KindShift:
			k.dim, k.sign = e.Map.GridDim, e.Map.Sign
		case KindReduce:
			k.uniq = e.ID
		default:
			k.sig = e.Map.Signature
		}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], e)
	}
	for _, k := range order {
		res.addGroup(k.pos, buckets[k], nil)
	}
}

// ---------------------------------------------------------------------
// "nored": earliest placement with pairwise redundancy elimination.

func (a *Analysis) placeEarliestRedundant(entries []*Entry, res *Result) {
	// Order entries so that dominating positions come first; an entry
	// is redundant when an earlier-placed live entry subsumes it.
	order := append([]*Entry(nil), entries...)
	sort.SliceStable(order, func(i, j int) bool {
		p, q := order[i].Earliest, order[j].Earliest
		if p == q {
			// Wider strips and larger sections first, so that an
			// entry subsumed by a co-located bigger one is seen after
			// its subsumer.
			if order[i].Map.Width != order[j].Map.Width {
				return order[i].Map.Width > order[j].Map.Width
			}
			ni, oki := order[i].SectionAt(a, p.Level()).NumElems()
			nj, okj := order[j].SectionAt(a, p.Level()).NumElems()
			if oki && okj && ni != nj {
				return ni > nj
			}
			return order[i].ID < order[j].ID
		}
		return a.posDominates(p, q)
	})
	var live []*Entry
	for _, e := range order {
		level := e.Earliest.Level()
		redundant := false
		for _, prev := range live {
			// Only co-located communications deduplicate safely here:
			// e's Earliest sits immediately after its last
			// constraining definition, so data fetched by an exchange
			// at any strictly earlier point may be overwritten before
			// e's use. (The global algorithm does better because its
			// candidate sets encode exactly which positions are
			// kill-free; this locality is the fundamental limitation
			// of earliest placement the paper exploits.)
			if prev.Earliest != e.Earliest {
				continue
			}
			if prev.ASDAt(a, level).Subsumes(e.ASDAt(a, level)) {
				res.Redundant[e] = prev
				res.subsumedAt[e] = prev.Earliest
				redundant = true
				break
			}
		}
		if redundant {
			continue
		}
		live = append(live, e)
	}
	// Attach eliminated entries to their subsumer's group, in placement
	// order.
	attached := map[*Entry][]*Entry{}
	for _, e := range order {
		if by := res.Redundant[e]; by != nil {
			attached[by] = append(attached[by], e)
		}
	}
	for _, e := range live {
		res.addGroup(e.Earliest, []*Entry{e}, attached[e])
	}
}

// ---------------------------------------------------------------------
// "comb": the paper's global algorithm (§4.5–4.7, Fig. 9e–g).

// commSets holds CommSet(S) for every candidate position S (Fig. 9e)
// in dense form. Positions are numbered in (block ID, slot) order — the
// order every pass below visits them in — and entries by ID, so
// membership is one flag, and the positions an entry still has are a
// walk of its own candidate list rather than a scan of every set.
type commSets struct {
	n      int              // len(Analysis.Entries): the row length of member
	pos    []Position       // position index → position, ascending
	index  map[Position]int // the inverse of pos
	listed [][]*Entry       // listed[p]: the entries with pos[p] among their candidates, by ID
	cands  [][]int          // cands[e.ID]: position indices of e's candidates, ascending
	member []bool           // member[p*n+e.ID]: e is still in CommSet(pos[p])
	size   []int            // size[p]: entries still in CommSet(pos[p])
	left   []int            // left[e.ID]: sets e is still in
}

// comparePos orders positions by block ID, then slot.
func comparePos(p, q Position) int {
	return cmp.Or(cmp.Compare(p.Block.ID, q.Block.ID), cmp.Compare(p.After, q.After))
}

func (a *Analysis) newCommSets(entries []*Entry) *commSets {
	cs := &commSets{n: len(a.Entries), index: map[Position]int{}}
	for _, e := range entries {
		for _, at := range e.Candidates {
			if _, seen := cs.index[at]; !seen {
				cs.index[at] = 0
				cs.pos = append(cs.pos, at)
			}
		}
	}
	slices.SortFunc(cs.pos, comparePos)
	for p, at := range cs.pos {
		cs.index[at] = p
	}
	cs.listed = make([][]*Entry, len(cs.pos))
	cs.cands = make([][]int, cs.n)
	cs.member = make([]bool, len(cs.pos)*cs.n)
	cs.size = make([]int, len(cs.pos))
	cs.left = make([]int, cs.n)
	for _, e := range entries {
		cs.cands[e.ID] = make([]int, 0, len(e.Candidates))
		for _, at := range e.Candidates {
			p := cs.index[at]
			if cs.has(p, e) {
				continue
			}
			cs.listed[p] = append(cs.listed[p], e)
			cs.cands[e.ID] = append(cs.cands[e.ID], p)
			cs.member[p*cs.n+e.ID] = true
			cs.size[p]++
			cs.left[e.ID]++
		}
		slices.Sort(cs.cands[e.ID])
	}
	return cs
}

func (cs *commSets) has(p int, e *Entry) bool { return cs.member[p*cs.n+e.ID] }

func (cs *commSets) remove(p int, e *Entry) {
	cs.member[p*cs.n+e.ID] = false
	cs.size[p]--
	cs.left[e.ID]--
}

// clear empties CommSet(pos[p]).
func (cs *commSets) clear(p int) {
	for _, e := range cs.listed[p] {
		if cs.has(p, e) {
			cs.remove(p, e)
		}
	}
}

// members returns a snapshot of CommSet(pos[p]), by ID.
func (cs *commSets) members(p int) []*Entry {
	out := make([]*Entry, 0, cs.size[p])
	for _, e := range cs.listed[p] {
		if cs.has(p, e) {
			out = append(out, e)
		}
	}
	return out
}

// subset reports CommSet(pos[p]) ⊆ CommSet(pos[q]).
func (cs *commSets) subset(p, q int) bool {
	if cs.size[p] > cs.size[q] {
		return false
	}
	for _, e := range cs.listed[p] {
		if cs.has(p, e) && !cs.has(q, e) {
			return false
		}
	}
	return true
}

// positionsOf appends the positions whose sets still hold e to buf,
// ascending.
func (cs *commSets) positionsOf(e *Entry, buf []int) []int {
	for _, p := range cs.cands[e.ID] {
		if cs.has(p, e) {
			buf = append(buf, p)
		}
	}
	return buf
}

// intersectSorted returns the common elements of two ascending lists.
func intersectSorted(x, y []int) []int {
	var out []int
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			out = append(out, x[i])
			i, j = i+1, j+1
		}
	}
	return out
}

func (a *Analysis) placeGlobal(entries []*Entry, res *Result, opts Options, rec *obs.Recorder, counts tally) {
	cs := a.newCommSets(entries)
	counts.add("candidate_positions", int64(len(cs.pos)))

	// Subset elimination (§4.5): CommSet(S1) ⊆ CommSet(S2) empties S1;
	// for equal sets keep the later position (the final step pushes
	// communication as late as possible anyway).
	if !opts.DisableSubsetElim {
		endSubset := rec.Start("subset-elim")
		for p := range cs.pos {
			for q := range cs.pos {
				if cs.size[p] == 0 {
					break
				}
				if p == q || cs.size[q] == 0 || !cs.subset(p, q) {
					continue
				}
				drop := p
				if cs.size[p] == cs.size[q] {
					// Empty the dominating (earlier) one.
					if !a.posDominates(cs.pos[p], cs.pos[q]) {
						drop = q
					}
					opts.tracef("subset-elim: CommSet(%v) == CommSet(%v): drop %v", cs.pos[p], cs.pos[q], cs.pos[drop])
				} else {
					opts.tracef("subset-elim: CommSet(%v) subset of CommSet(%v): drop %v", cs.pos[p], cs.pos[q], cs.pos[p])
				}
				cs.clear(drop)
				counts.add("subset.dropped_positions", 1)
			}
		}
		endSubset()
	}

	// Global redundancy elimination (§4.6, Fig. 9f): when c2 subsumes
	// c1 at S, disable c1 at S and every position S dominates; iterate
	// to fixpoint. An entry with no remaining position is eliminated
	// entirely and attached to its subsumer.
	endRedund := rec.Start("redundancy-elim")
	subsumer := make([]*Entry, cs.n)
	for changed := true; changed; {
		changed = false
		for p, at := range cs.pos {
			if cs.size[p] < 2 {
				continue
			}
			level := at.Level()
			es := cs.members(p)
			for _, c1 := range es {
				if subsumer[c1.ID] != nil {
					continue
				}
				for _, c2 := range es {
					if c1 == c2 || subsumer[c2.ID] != nil || c1.Array != c2.Array {
						continue
					}
					if !c2.ASDAt(a, level).Subsumes(c1.ASDAt(a, level)) {
						continue
					}
					// Disable c1 here and everywhere dominated by p.
					removed := false
					for _, q := range cs.cands[c1.ID] {
						if cs.has(q, c1) && (q == p || a.posDominates(at, cs.pos[q])) {
							cs.remove(q, c1)
							removed = true
						}
					}
					if removed {
						changed = true
						counts.add("redundancy.disabled_positions", 1)
					}
					if cs.left[c1.ID] == 0 {
						opts.tracef("redundancy: %v fully subsumed by %v at %v", c1, c2, at)
						subsumer[c1.ID] = c2
						res.Redundant[c1] = c2
						res.subsumedAt[c1] = at
						counts.add("redundancy.eliminated", 1)
					}
					break
				}
			}
		}
	}
	endRedund()

	// GreedyChoose (Fig. 9g): consider the most constrained entry
	// first; pin it at the position compatible with the most other
	// candidates.
	live := make([]*Entry, 0, len(entries))
	for _, e := range entries {
		if subsumer[e.ID] == nil {
			live = append(live, e)
		}
	}
	order := append([]*Entry(nil), live...)
	if !opts.NaiveGreedyOrder {
		sort.SliceStable(order, func(i, j int) bool {
			ni, nj := cs.left[order[i].ID], cs.left[order[j].ID]
			if ni != nj {
				return ni < nj
			}
			return order[i].ID < order[j].ID
		})
	}
	endGreedy := rec.Start("greedy-choose")
	pinned := make([]int, cs.n)
	var stmtSet []int
	// An entry meets the same partner at every position of a level, and
	// canCombine depends on the level only: asked[level*n+partner]
	// holds the round (index into order, plus one) that last asked, and
	// answer what it was told.
	levels := 0
	for _, at := range cs.pos {
		levels = max(levels, at.Level()+1)
	}
	asked := make([]int, levels*cs.n)
	answer := make([]bool, levels*cs.n)
	for round, c := range order {
		counts.add("greedy.iterations", 1)
		stmtSet = cs.positionsOf(c, stmtSet[:0])
		if len(stmtSet) == 0 {
			// Defensive: should not happen for live entries.
			stmtSet = append(stmtSet, cs.index[c.Latest])
		}
		counts.add("greedy.positions_considered", int64(len(stmtSet)))
		best := stmtSet[0]
		bestCount := -1
		for _, s := range stmtSet {
			level := cs.pos[s].Level()
			count := 0
			for _, e2 := range cs.listed[s] {
				if e2 == c || !cs.has(s, e2) {
					continue
				}
				k := level*cs.n + e2.ID
				if asked[k] != round+1 {
					asked[k], answer[k] = round+1, a.canCombine(c, e2, level, opts)
				}
				if answer[k] {
					count++
				}
			}
			// Ties prefer the later (most dominated) position to
			// reduce buffer/cache pressure, as §4.7 prescribes.
			if count > bestCount || (count == bestCount && a.posDominates(cs.pos[best], cs.pos[s])) {
				best, bestCount = s, count
			}
		}
		opts.tracef("greedy: pin %v at %v (combinable partners %d of %d positions)", c, cs.pos[best], bestCount, len(stmtSet))
		pinned[c.ID] = best
		for _, q := range stmtSet {
			if q != best && cs.has(q, c) {
				cs.remove(q, c)
			}
		}
	}
	endGreedy()

	// Partition each position's entries into combine groups; live is in
	// ID order, so every position's list is too.
	byPos := make([][]*Entry, len(cs.pos))
	for _, e := range live {
		byPos[pinned[e.ID]] = append(byPos[pinned[e.ID]], e)
	}
	// Subsumption can chain (e1 ⊆ e2 ⊆ e3 with e2 itself eliminated);
	// every eliminated entry attaches to its live root so the final
	// group position honours the whole chain's candidate sets.
	attached := make([][]*Entry, cs.n)
	for _, e := range entries {
		root := e
		for subsumer[root.ID] != nil {
			root = subsumer[root.ID]
		}
		if root != e {
			attached[root.ID] = append(attached[root.ID], e)
		}
	}
	// entryCommon is the candidate-position set of an entry intersected
	// with those of the redundant entries riding on it; a group must
	// keep the intersection of its members' sets non-empty so the
	// final "latest common position" exists.
	entryCommon := func(e *Entry) []int {
		set := cs.cands[e.ID]
		for _, r := range attached[e.ID] {
			set = intersectSorted(set, cs.cands[r.ID])
		}
		return set
	}

	endCombine := rec.Start("combine")
	for p, es := range byPos {
		if len(es) == 0 {
			continue
		}
		level := cs.pos[p].Level()
		var groups [][]*Entry
		var commons [][]int
		for _, e := range es {
			ec := entryCommon(e)
			placedInGroup := false
			if !opts.DisableCombining {
				for gi := range groups {
					ok := true
					for _, m := range groups[gi] {
						pairOK, reason := a.combineVerdict(e, m, level, opts)
						if !pairOK {
							opts.tracef("combine: %v does not join group of %v (%s)", e, m, reason)
							counts.reject(reason)
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					if !a.groupFits(groups[gi], e, level, opts) {
						counts.reject(reasonThreshold)
						continue // combined size beyond the threshold
					}
					merged := intersectSorted(commons[gi], ec)
					if len(merged) == 0 {
						counts.reject(reasonNoCommonPos)
						continue // no shared placement point
					}
					groups[gi] = append(groups[gi], e)
					commons[gi] = merged
					placedInGroup = true
					counts.add("combine.merges", 1)
					break
				}
			}
			if !placedInGroup {
				groups = append(groups, []*Entry{e})
				commons = append(commons, ec)
			}
		}
		for gi, members := range groups {
			// Final position: the latest candidate position common to
			// every member and every attached redundant entry.
			pos := members[0].Latest // defensive; the grouping keeps sets non-empty
			for i, q := range commons[gi] {
				if i == 0 || a.posDominates(pos, cs.pos[q]) {
					pos = cs.pos[q]
				}
			}
			var att []*Entry
			for _, m := range members {
				att = append(att, attached[m.ID]...)
			}
			res.addGroup(pos, members, att)
		}
	}
	endCombine()
}

// Rejection reasons recorded by the combining counters: kind or
// mapping incompatibility (§4.7's "identical or subset" rule), the
// combined-size threshold (the measured 20 KB knee of Fig. 5), the
// bounded single-descriptor union (hull blowup), unknown sizes, and a
// group whose members share no remaining candidate position.
const (
	reasonKind        = "kind"
	reasonMapping     = "mapping"
	reasonThreshold   = "threshold"
	reasonHull        = "hull"
	reasonUnknownSize = "unknown_size"
	reasonNoCommonPos = "no_common_pos"
)

// canCombine implements the §4.7 compatibility criteria: mappings
// identical or one a subset of the other, combined size under the
// machine threshold (with the NNC/reduction rule of thumb when sizes
// are unknown), and a bounded single-descriptor union.
func (a *Analysis) canCombine(e1, e2 *Entry, level int, opts Options) bool {
	ok, _ := a.combineVerdict(e1, e2, level, opts)
	return ok
}

// combineVerdict is canCombine plus the reason a pair cannot combine,
// for the observability counters and trace log.
func (a *Analysis) combineVerdict(e1, e2 *Entry, level int, opts Options) (bool, string) {
	if e1.Kind != e2.Kind {
		return false, reasonKind
	}
	if !e1.Map.CompatibleWith(e2.Map) {
		return false, reasonMapping
	}
	if e1.Kind == KindReduce {
		return true, "" // partial results concatenate into one message
	}
	b1, ok1 := e1.BytesAt(a, level)
	b2, ok2 := e2.BytesAt(a, level)
	if ok1 && ok2 {
		if b1+b2 > opts.threshold() {
			return false, reasonThreshold
		}
	} else if e1.Kind != KindShift {
		return false, reasonUnknownSize // unknown size: only NNC gets the rule of thumb
	}
	s1 := e1.SectionAt(a, level)
	s2 := e2.SectionAt(a, level)
	if e1.Array == e2.Array {
		_, blowup, ok := s1.Hull(s2)
		if !ok || blowup > opts.maxBlowup() {
			return false, reasonHull
		}
		return true, ""
	}
	if e1.Kind == KindShift {
		// Cross-array NNC compares the sections projected onto the
		// distributed (grid) dimensions: a 3-d g(i,1:ny,1:nz) plane
		// combines with a 2-d glast(1:ny,1:nz) because their template
		// footprints coincide (Fig. 1). Footprints may differ by a
		// bounded hull (sections of stencil operands are offset by a
		// point or two), matching the paper's single-descriptor rule.
		l1, l2 := e1.at(level), e2.at(level)
		if !l1.gridOK || !l2.gridOK {
			return false, reasonMapping
		}
		return sharesDescriptor(l1.grid, l2.grid, opts, reasonHull)
	}
	return sharesDescriptor(s1, s2, opts, reasonUnknownSize)
}

// sharesDescriptor reports whether one descriptor can stand for both
// sections across arrays: their hull must cover both without excessive
// padding on either. Sections of unknown size must be provably
// identical, else the pair is rejected for the given reason.
func sharesDescriptor(x, y asd.SymSection, opts Options, unknown string) (bool, string) {
	hull, _, ok := x.Hull(y)
	if !ok {
		return false, reasonHull
	}
	n1, ok1 := x.NumElems()
	n2, ok2 := y.NumElems()
	nh, okh := hull.NumElems()
	if !ok1 || !ok2 || !okh {
		if x.Equal(y) {
			return true, ""
		}
		return false, unknown
	}
	if float64(2*nh) <= opts.maxBlowup()*float64(n1+n2) {
		return true, ""
	}
	return false, reasonHull
}

// gridSection projects an entry's section onto the processor grid
// dimensions of its array's distribution.
func (a *Analysis) gridSection(e *Entry, sec asd.SymSection) (asd.SymSection, bool) {
	arr := a.Unit.Arrays[e.Array]
	if arr == nil || arr.Dist == nil {
		return asd.SymSection{}, false
	}
	out := asd.SymSection{Dims: make([]asd.SymDim, a.Unit.Grid.Rank())}
	found := make([]bool, a.Unit.Grid.Rank())
	for k := range arr.Lo {
		g := a.gridDimOfArrayDim(arr, k)
		if g < 0 || k >= len(sec.Dims) {
			continue
		}
		out.Dims[g] = sec.Dims[k]
		found[g] = true
	}
	for _, f := range found {
		if !f {
			return asd.SymSection{}, false
		}
	}
	return out, true
}

// groupFits bounds the total packed size of a combined message by the
// machine threshold (§4.7): the pairwise test alone would let a group
// of individually small strips grow past the point where combining
// stops paying.
func (a *Analysis) groupFits(members []*Entry, e *Entry, level int, opts Options) bool {
	if e.Kind == KindReduce {
		return true // reductions move one partial per member
	}
	total, ok := e.BytesAt(a, level)
	if !ok {
		return true // unknown sizes: the NNC rule of thumb applies
	}
	for _, m := range members {
		b, okm := m.BytesAt(a, level)
		if !okm {
			return true
		}
		total += b
	}
	return total <= opts.threshold()
}
