package core

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"strconv"

	"gcao/internal/asd"
	"gcao/internal/heapsize"
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
	// 0 selects DefaultCombineThresholdBytes.
	CombineThresholdBytes int
	// DisableSubsetElim turns off §4.5 (ablation; §6 notes it must be
	// dropped when overlap matters).
	DisableSubsetElim bool
	// NaiveGreedyOrder processes entries in program order instead of
	// most-constrained-first (ablation).
	NaiveGreedyOrder bool
	// DisableCombining turns off message combining while keeping the
	// global placement machinery (ablation).
	DisableCombining bool
	// Obs, when non-nil, receives phase spans, elimination/combining
	// counters and the per-entry placement decision log of this
	// placement. Nil records nothing.
	Obs *obs.Recorder
}

// DefaultCombineThresholdBytes is the paper's combining threshold
// (§4.7): 20 KB, inside the in-cache bcopy regime of both machines, so
// packing a combined message stays cheap beside sending it.
const DefaultCombineThresholdBytes = 20 << 10

func (o Options) threshold() int {
	if o.CombineThresholdBytes > 0 {
		return o.CombineThresholdBytes
	}
	return DefaultCombineThresholdBytes
}

// maxHullBlowup bounds how much larger the single-descriptor union of
// two sections may be than the two combined (§4.7).
const maxHullBlowup = 1.25

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

	version Version // the strategy that placed the group, for SiteID
}

func (g *Group) String() string {
	return fmt.Sprintf("group%d@%s %s x%d", g.ID, g.Pos, g.Kind, len(g.Entries))
}

// SiteID returns the stable placement-site identifier,
// "<version>/g<ID>@<position>/<kind>", numbered after the deterministic
// group ordering. The codegen listing and the runtime comm groups carry
// it so simulator traffic can be blamed back to this placement
// decision. Only observers ask for it, so it is derived from the
// group's fields on every call and never stored: a Result shared
// between goroutines holds nothing a reader writes.
func (g *Group) SiteID() string {
	return g.version.String() + "/g" + strconv.Itoa(g.ID) + "@" + g.Pos.String() + "/" + g.Kind.String()
}

// Sources returns the source statements whose references the group's
// exchange serves — members and subsumed attachments alike — as
// "label@line:col" strings, deduplicated and sorted: the source-level
// half of the blame record. Like SiteID it is derived on every call.
func (g *Group) Sources() []string {
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

// Result is the outcome of placement under one strategy.
type Result struct {
	Analysis *Analysis
	Version  Version
	Groups   []*Group
	// Redundant[e.ID] is the entry that subsumes eliminated entry e; nil
	// for every other entry.
	Redundant []*Entry
	// PosOf[e.ID] is live entry e's group position; the zero Position for
	// every other entry.
	PosOf []Position

	// subsumedAt[e.ID] is the position at which redundant entry e's
	// subsumption was proven, for the decision log; the zero Position
	// for every other entry.
	subsumedAt []Position
	// groups and lists are the slabs addGroup carves the Groups and
	// their Entries and Attached lists from: groups holds the strategy's
	// count, and lists every placed entry once, as a member of one group
	// or attached to one.
	groups []Group
	lists  []*Entry
}

// newResult makes the Result of placing n communication entries of a
// under v in k groups, once the strategy has counted them: its tables by
// entry ID, the two of positions carved from one array, Redundant and the
// list slab, sized once from n, from one of entries, and its groups.
func (a *Analysis) newResult(v Version, n, k int) *Result {
	ne := len(a.Entries)
	pos := make([]Position, 2*ne)
	ptrs := make([]*Entry, ne+n)
	return &Result{
		Analysis:   a,
		Version:    v,
		Groups:     make([]*Group, 0, k),
		Redundant:  ptrs[:ne:ne],
		PosOf:      pos[:ne:ne],
		subsumedAt: pos[ne:],
		groups:     make([]Group, 0, k),
		lists:      ptrs[ne:ne],
	}
}

// Bytes returns what the Result holds beside its Analysis: itself, its
// groups and their member lists, and its tables by entry ID.
func (r *Result) Bytes() int64 {
	return heapsize.Of(r) + heapsize.Slice(r.Groups) + heapsize.Slice(r.groups) +
		heapsize.Slice(r.lists) + heapsize.Slice(r.Redundant) +
		heapsize.Slice(r.PosOf) + heapsize.Slice(r.subsumedAt)
}

// Eliminated returns the number of entries eliminated as redundant.
func (r *Result) Eliminated() int {
	n := 0
	for _, by := range r.Redundant {
		if by != nil {
			n++
		}
	}
	return n
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

// TotalMessages returns the total number of placed groups.
func (r *Result) TotalMessages() int { return len(r.Groups) }

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
//
// Everything a placement writes is its own: the Result with its slabs,
// and the scratch each strategy carves from a few slabs sized from the
// entry and position counts before it starts. A placement allocates a
// fixed handful of times however many groups, pairs and positions it
// weighs, and any number of goroutines may place one Analysis at once.
func (a *Analysis) Place(opts Options) (*Result, error) {
	rec := opts.Obs
	var counts tally
	if rec != nil {
		counts = tally{}
		defer rec.Start("place:" + opts.Version.String())()
	}
	entries := a.CommEntries()
	var res *Result
	switch opts.Version {
	case VersionOrig:
		res = a.placeVectorized(entries)
	case VersionRedund:
		res = a.placeEarliestRedundant(entries)
	case VersionCombine:
		res = a.placeGlobal(entries, opts, rec, counts)
	default:
		return nil, fmt.Errorf("core: unknown version %v", opts.Version)
	}
	a.sortGroups(res)
	if rec == nil {
		return res, nil
	}
	counts.add("entries", int64(len(entries)))
	counts.add("redundant", int64(res.Eliminated()))
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
		slog.Int("redundant", res.Eliminated()))
	return res, nil
}

// addGroup appends a group at pos, copying its members and attached
// entries into the Result's slab. The lists it hands out are capped,
// so an append to one copies it rather than overwriting a neighbour.
func (r *Result) addGroup(pos Position, members, attached []*Entry) *Group {
	at := len(r.lists)
	r.lists = append(append(r.lists, members...), attached...)
	mid, end := at+len(members), len(r.lists)
	r.groups = append(r.groups, Group{
		ID: len(r.Groups), Pos: pos, Kind: members[0].Kind, Map: members[0].Map,
		Entries: r.lists[at:mid:mid], version: r.Version,
	})
	g := &r.groups[len(r.groups)-1]
	if end > mid {
		g.Attached = r.lists[mid:end:end]
	}
	for _, e := range g.Entries[1:] {
		g.Map = g.Map.Union(e.Map)
	}
	for _, e := range g.Entries {
		r.PosOf[e.ID] = pos
	}
	r.Groups = append(r.Groups, g)
	return g
}

// eliminate records that e is redundant given by, proven at at.
func (r *Result) eliminate(e, by *Entry, at Position) {
	r.Redundant[e.ID] = by
	r.subsumedAt[e.ID] = at
}

// sortGroups orders groups deterministically by position (dominance,
// then block/slot) for stable output, and numbers them in that order.
func (a *Analysis) sortGroups(res *Result) {
	slices.SortStableFunc(res.Groups, func(x, y *Group) int {
		p, q := x.Pos, y.Pos
		if p.Block != q.Block {
			switch {
			case a.posDominates(p, q):
				return -1
			case a.posDominates(q, p):
				return 1
			}
			return cmp.Compare(p.Block.ID, q.Block.ID)
		}
		return cmp.Or(cmp.Compare(p.After, q.After), cmp.Compare(x.Entries[0].ID, y.Entries[0].ID))
	})
	for i, g := range res.Groups {
		g.ID = i
	}
}

// carve returns the next n elements of *slab and moves the slab past
// them; a slab too short for n (never one sized by its caller's count)
// yields a fresh slice instead.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// groupBy lays items out grouped by key, each group in item order:
// group k is out[off[k]:off[k+1]]. An item whose key is negative is
// left out. off must hold one more element than the largest key plus
// two, out one per item kept.
func groupBy(items []*Entry, key, off []int, out []*Entry) {
	clear(off)
	for _, k := range key {
		if k >= 0 {
			off[k+2]++
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	for i, k := range key {
		if k >= 0 {
			out[off[k+1]] = items[i]
			off[k+1]++
		}
	}
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
func (a *Analysis) placeVectorized(entries []*Entry) *Result {
	// Buckets are numbered in order of first appearance: bucket[i] is
	// entries[i]'s and leaders[b] the first entry of bucket b.
	n := len(entries)
	ints := make([]int, n+n+2)
	bucket, off := carve(&ints, n), carve(&ints, n+2)
	ptrs := make([]*Entry, 2*n)
	leaders, grouped := carve(&ptrs, n)[:0], carve(&ptrs, n)
	for i, e := range entries {
		b := 0
		for b < len(leaders) && !sameBucket(leaders[b], e) {
			b++
		}
		if b == len(leaders) {
			leaders = append(leaders, e)
		}
		bucket[i] = b
	}
	groupBy(entries, bucket, off, grouped)
	res := a.newResult(VersionOrig, n, len(leaders))
	for b, e := range leaders {
		res.addGroup(e.Latest, grouped[off[b]:off[b+1]], nil)
	}
	return res
}

// sameBucket reports whether e shares x's exchange under "orig": read
// in the same statement, same array, kind and latest position, and for
// a shift the same axis and direction, for a broadcast or general
// pattern the same mapping signature. Distinct reductions never share.
func sameBucket(x, e *Entry) bool {
	if x.Use().Stmt != e.Use().Stmt || x.Array != e.Array || x.Kind != e.Kind || x.Latest != e.Latest {
		return false
	}
	switch e.Kind {
	case KindShift:
		return x.Map.GridDim == e.Map.GridDim && x.Map.Sign == e.Map.Sign
	case KindReduce:
		return false
	}
	return x.Map.Signature == e.Map.Signature
}

// ---------------------------------------------------------------------
// "nored": earliest placement with pairwise redundancy elimination.

func (a *Analysis) placeEarliestRedundant(entries []*Entry) *Result {
	n := len(entries)
	ptrs := make([]*Entry, 4*n+len(a.Entries))
	order, live, att, by := carve(&ptrs, n), carve(&ptrs, n)[:0], carve(&ptrs, n), carve(&ptrs, len(a.Entries))
	ints := make([]int, n+len(a.Entries)+2)
	key, off := carve(&ints, n), carve(&ints, len(a.Entries)+2)
	// Order entries so that dominating positions come first; an entry
	// is redundant when an earlier-placed live entry subsumes it.
	copy(order, entries)
	slices.SortStableFunc(order, func(x, y *Entry) int {
		p, q := x.Earliest, y.Earliest
		if p == q {
			// Wider strips and larger sections first, so that an
			// entry subsumed by a co-located bigger one is seen after
			// its subsumer.
			if x.Map.Width != y.Map.Width {
				return cmp.Compare(y.Map.Width, x.Map.Width)
			}
			sx, sy := x.at(p.Level()).sec, y.at(p.Level()).sec
			if sx.ok && sy.ok && sx.n != sy.n {
				return cmp.Compare(sy.n, sx.n)
			}
			return cmp.Compare(x.ID, y.ID)
		}
		switch {
		case a.posDominates(p, q):
			return -1
		case a.posDominates(q, p):
			return 1
		}
		return 0
	})
	for _, e := range order {
		level := e.Earliest.Level()
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
				by[e.ID] = prev
				break
			}
		}
		if by[e.ID] == nil {
			live = append(live, e)
		}
	}
	// Attach eliminated entries to their subsumer's group, in placement
	// order; each was proven redundant at its subsumer's position.
	res := a.newResult(VersionRedund, n, len(live))
	for i, e := range order {
		key[i] = -1
		if s := by[e.ID]; s != nil {
			key[i] = s.ID
			res.eliminate(e, s, s.Earliest)
		}
	}
	groupBy(order, key, off, att)
	for i, e := range live {
		res.addGroup(e.Earliest, live[i:i+1], att[off[e.ID]:off[e.ID+1]])
	}
	return res
}

// ---------------------------------------------------------------------
// "comb": the paper's global algorithm (§4.5–4.7, Fig. 9e–g).

// commSets holds CommSet(S) for every candidate position S (Fig. 9e)
// in dense form. Positions are numbered in (block ID, slot) order — the
// order every pass below visits them in — and entries by ID, so
// membership is one flag, and the positions an entry still has are a
// walk of its own candidate list rather than a scan of every set. Its
// lists are offsets into flat arrays, all sized before the first write.
type commSets struct {
	n     int        // len(Analysis.Entries): the row length of member
	pos   []Position // position index → position, ascending
	index []int      // Analysis.slot(position) → position index, −1 if no entry has it
	// listed(p) = listedAt[listedOff[p]:listedOff[p+1]]: the entries
	// with pos[p] among their candidates, by ID.
	listedOff []int
	listedAt  []*Entry
	// cands(e) = candAt[candOff[e.ID]:candOff[e.ID+1]]: the position
	// indices of e's candidates, ascending.
	candOff []int
	candAt  []int
	member  []bool // member[p*n+e.ID]: e is still in CommSet(pos[p])
	size    []int  // size[p]: entries still in CommSet(pos[p])
	left    []int  // left[e.ID]: sets e is still in
}

// newCommSets builds the sets of the entries, which are in ID order.
func (a *Analysis) newCommSets(entries []*Entry) commSets {
	n, total := len(a.Entries), 0
	for _, e := range entries {
		total += len(e.Candidates)
	}
	slots := a.slotBase[len(a.slotBase)-1]
	ints := make([]int, slots+(n+1)+total+n)
	cs := commSets{n: n, index: carve(&ints, slots), candOff: carve(&ints, n+1), candAt: carve(&ints, total), left: carve(&ints, n)}
	for s := range cs.index {
		cs.index[s] = -1
	}
	np := 0
	for _, e := range entries {
		for _, at := range e.Candidates {
			if s := a.slot(at); cs.index[s] < 0 {
				cs.index[s] = 0
				np++
			}
		}
	}
	// Number the marked slots in slot order, which is (block ID, slot)
	// order.
	cs.pos = make([]Position, 0, np)
	for _, b := range a.G.Blocks {
		for after := -1; after < len(b.Stmts); after++ {
			if s := a.slotBase[b.ID] + after + 1; cs.index[s] >= 0 {
				cs.index[s] = len(cs.pos)
				cs.pos = append(cs.pos, Position{Block: b, After: after})
			}
		}
	}
	pints := make([]int, 2*np+2)
	cs.size, cs.listedOff = carve(&pints, np), carve(&pints, np+2)
	cs.member = make([]bool, np*n)
	off, next := 0, 0
	for _, e := range entries {
		for ; next <= e.ID; next++ {
			cs.candOff[next] = off
		}
		for _, at := range e.Candidates {
			p := cs.index[a.slot(at)]
			if cs.has(p, e) {
				continue
			}
			cs.member[p*n+e.ID] = true
			cs.candAt[off] = p
			off++
			cs.size[p]++
			cs.left[e.ID]++
		}
		slices.Sort(cs.candAt[cs.candOff[e.ID]:off])
	}
	for ; next <= n; next++ {
		cs.candOff[next] = off
	}
	// listed is the candidate lists turned inside out: a counting sort
	// of the (position, entry) pairs by position, entries by ID within.
	cs.listedAt = make([]*Entry, off)
	for p, k := range cs.size {
		cs.listedOff[p+2] = k
	}
	for p := 2; p < len(cs.listedOff); p++ {
		cs.listedOff[p] += cs.listedOff[p-1]
	}
	for _, e := range entries {
		for _, p := range cs.cands(e) {
			cs.listedAt[cs.listedOff[p+1]] = e
			cs.listedOff[p+1]++
		}
	}
	return cs
}

func (cs *commSets) has(p int, e *Entry) bool { return cs.member[p*cs.n+e.ID] }

func (cs *commSets) listed(p int) []*Entry { return cs.listedAt[cs.listedOff[p]:cs.listedOff[p+1]] }

func (cs *commSets) cands(e *Entry) []int { return cs.candAt[cs.candOff[e.ID]:cs.candOff[e.ID+1]] }

func (cs *commSets) remove(p int, e *Entry) {
	cs.member[p*cs.n+e.ID] = false
	cs.size[p]--
	cs.left[e.ID]--
}

// clear empties CommSet(pos[p]).
func (cs *commSets) clear(p int) {
	for _, e := range cs.listed(p) {
		if cs.has(p, e) {
			cs.remove(p, e)
		}
	}
}

// members appends CommSet(pos[p]) to buf, by ID.
func (cs *commSets) members(p int, buf []*Entry) []*Entry {
	for _, e := range cs.listed(p) {
		if cs.has(p, e) {
			buf = append(buf, e)
		}
	}
	return buf
}

// subset reports CommSet(pos[p]) ⊆ CommSet(pos[q]).
func (cs *commSets) subset(p, q int) bool {
	if cs.size[p] > cs.size[q] {
		return false
	}
	for _, e := range cs.listed(p) {
		if cs.has(p, e) && !cs.has(q, e) {
			return false
		}
	}
	return true
}

// positionsOf appends the positions whose sets still hold e to buf,
// ascending.
func (cs *commSets) positionsOf(e *Entry, buf []int) []int {
	for _, p := range cs.cands(e) {
		if cs.has(p, e) {
			buf = append(buf, p)
		}
	}
	return buf
}

// intersectSorted writes the common elements of two ascending lists to
// dst and returns them; dst may be x itself.
func intersectSorted(dst, x, y []int) []int {
	dst = dst[:0]
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			dst = append(dst, x[i])
			i, j = i+1, j+1
		}
	}
	return dst
}

// packed is a forming combine group's message size at its level, for
// the threshold test of §4.7: its members' bytes, and whether any
// member's size is unknown.
type packed struct {
	bytes   int
	unknown bool
}

func (p *packed) add(e *Entry, level int) {
	li := e.at(level)
	p.bytes += li.bytes
	p.unknown = p.unknown || !li.bytesOK
}

// fits bounds the total packed size of a combined message by the
// machine threshold (§4.7): the pairwise test alone would let a group
// of individually small strips grow past the point where combining
// stops paying. Reductions move one partial per member, and unknown
// sizes fall under the NNC rule of thumb.
func (p packed) fits(e *Entry, level int, opts Options) bool {
	li := e.at(level)
	return e.Kind == KindReduce || !li.bytesOK || p.unknown || p.bytes+li.bytes <= opts.threshold()
}

// combineGroup is one combine group forming at position p: the
// candidate positions its members and their attachments still share,
// commons[lo:hi], and its packed size.
type combineGroup struct {
	p, lo, hi int
	packed
}

func (a *Analysis) placeGlobal(entries []*Entry, opts Options, rec *obs.Recorder, counts tally) *Result {
	cs := a.newCommSets(entries)
	n, m, np := cs.n, len(entries), len(cs.pos)
	counts.add("candidate_positions", int64(np))

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
				}
				cs.clear(drop)
				counts.add("subset.dropped_positions", 1)
			}
		}
		endSubset()
	}

	// The rest of the placement's scratch, carved from one slab of ints
	// and one of entries: per-entry rows by ID (n; among them the
	// position index at which a redundant entry was proven subsumed, for
	// the Result made once the groups are counted), per-placed-entry
	// lists (m), per-position offsets (np) and candidate-list buffers (at
	// most maxCands long; the groups formed at all positions share at
	// most len(candAt) common positions, as each entry founds at most
	// one). Beside them, the verdict memo.
	levels, maxCands := 0, 0
	for _, at := range cs.pos {
		levels = max(levels, at.Level()+1)
	}
	for _, e := range entries {
		maxCands = max(maxCands, len(cs.cands(e)))
	}
	ints := make([]int, 2*n+2*m+(np+2)+(n+2)+3*maxCands+len(cs.candAt))
	pinned, subsumedAt, keys, groupOf := carve(&ints, n), carve(&ints, n), carve(&ints, m), carve(&ints, m)
	byPosOff, attOff := carve(&ints, np+2), carve(&ints, n+2)
	stmtSet, ec, merged, commons := carve(&ints, maxCands), carve(&ints, maxCands), carve(&ints, maxCands), carve(&ints, len(cs.candAt))
	ptrs := make([]*Entry, n+7*m)
	subsumer, snapshot, live, order := carve(&ptrs, n), carve(&ptrs, m), carve(&ptrs, m)[:0], carve(&ptrs, m)
	byPos, attached, members, att := carve(&ptrs, m), carve(&ptrs, m), carve(&ptrs, m), carve(&ptrs, m)
	groups := make([]combineGroup, 0, m)
	// combineVerdict depends on the pair and the level only, and either
	// order of the pair gets the same answer, so the greedy and the
	// combiner ask each (pair, level) once: verdict[(level*n+e1.ID)*n+
	// e2.ID] is 0 until then, and after it 1 + the answer's index in
	// verdicts.
	verdict := make([]uint8, levels*n*n)
	judge := func(e1, e2 *Entry, level int) (bool, string) {
		k := &verdict[(level*n+e1.ID)*n+e2.ID]
		if *k == 0 {
			_, reason := a.combineVerdict(e1, e2, level, opts)
			*k = uint8(slices.Index(verdicts[:], reason) + 1)
			verdict[(level*n+e2.ID)*n+e1.ID] = *k
		}
		reason := verdicts[*k-1]
		return reason == "", reason
	}

	// Global redundancy elimination (§4.6, Fig. 9f): when c2 subsumes
	// c1 at S, disable c1 at S and every position S dominates; iterate
	// to fixpoint. An entry with no remaining position is eliminated
	// entirely and attached to its subsumer.
	endRedund := rec.Start("redundancy-elim")
	for changed := true; changed; {
		changed = false
		for p, at := range cs.pos {
			if cs.size[p] < 2 {
				continue
			}
			level := at.Level()
			es := cs.members(p, snapshot[:0])
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
					for _, q := range cs.cands(c1) {
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
						subsumer[c1.ID], subsumedAt[c1.ID] = c2, p
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
	for _, e := range entries {
		if subsumer[e.ID] == nil {
			live = append(live, e)
		}
	}
	order = order[:copy(order, live)]
	if !opts.NaiveGreedyOrder {
		slices.SortStableFunc(order, func(x, y *Entry) int {
			return cmp.Or(cmp.Compare(cs.left[x.ID], cs.left[y.ID]), cmp.Compare(x.ID, y.ID))
		})
	}
	endGreedy := rec.Start("greedy-choose")
	for _, c := range order {
		counts.add("greedy.iterations", 1)
		stmtSet = cs.positionsOf(c, stmtSet[:0])
		if len(stmtSet) == 0 {
			// Defensive: should not happen for live entries.
			stmtSet = append(stmtSet, cs.index[a.slot(c.Latest)])
		}
		counts.add("greedy.positions_considered", int64(len(stmtSet)))
		best := stmtSet[0]
		bestCount := -1
		for _, s := range stmtSet {
			level := cs.pos[s].Level()
			count := 0
			for _, e2 := range cs.listed(s) {
				if e2 == c || !cs.has(s, e2) {
					continue
				}
				if ok, _ := judge(c, e2, level); ok {
					count++
				}
			}
			// Ties prefer the later (most dominated) position to
			// reduce buffer/cache pressure, as §4.7 prescribes.
			if count > bestCount || (count == bestCount && a.posDominates(cs.pos[best], cs.pos[s])) {
				best, bestCount = s, count
			}
		}
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
	for i, e := range live {
		keys[i] = pinned[e.ID]
	}
	groupBy(live, keys[:len(live)], byPosOff, byPos)
	// Subsumption can chain (e1 ⊆ e2 ⊆ e3 with e2 itself eliminated);
	// every eliminated entry attaches to its live root so the final
	// group position honours the whole chain's candidate sets.
	for i, e := range entries {
		root := e
		for subsumer[root.ID] != nil {
			root = subsumer[root.ID]
		}
		keys[i] = -1
		if root != e {
			keys[i] = root.ID
		}
	}
	groupBy(entries, keys, attOff, attached)
	attachedTo := func(e *Entry) []*Entry { return attached[attOff[e.ID]:attOff[e.ID+1]] }

	// Partition each position's entries into combine groups, first fit:
	// groupOf[i] is byPos[i]'s group, and groups are numbered position
	// by position. Then the groups are emitted in that order.
	endCombine := rec.Start("combine")
	used := 0
	for p := range cs.pos {
		at := byPosOff[p]
		es := byPos[at:byPosOff[p+1]]
		level := cs.pos[p].Level()
		first := len(groups)
		for i, e := range es {
			// e's common positions: its candidate set intersected with
			// those of the redundant entries riding on it. A group must
			// keep the intersection of its members' sets non-empty so
			// the final "latest common position" exists.
			mine := append(ec[:0], cs.cands(e)...)
			for _, r := range attachedTo(e) {
				mine = intersectSorted(mine, mine, cs.cands(r))
			}
			groupOf[at+i] = -1
			for gi := first; gi < len(groups) && !opts.DisableCombining; gi++ {
				g := &groups[gi]
				ok := true
				for j, mj := range es[:i] {
					if groupOf[at+j] != gi {
						continue
					}
					pairOK, reason := judge(e, mj, level)
					if !pairOK {
						counts.reject(reason)
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if !g.fits(e, level, opts) {
					counts.reject(reasonThreshold)
					continue // combined size beyond the threshold
				}
				common := intersectSorted(merged, commons[g.lo:g.hi], mine)
				if len(common) == 0 {
					counts.reject(reasonNoCommonPos)
					continue // no shared placement point
				}
				g.hi = g.lo + copy(commons[g.lo:], common)
				g.add(e, level)
				groupOf[at+i] = gi
				counts.add("combine.merges", 1)
				break
			}
			if groupOf[at+i] < 0 {
				groupOf[at+i] = len(groups)
				g := combineGroup{p: p, lo: used, hi: used + copy(commons[used:], mine)}
				g.add(e, level)
				groups = append(groups, g)
				used = g.hi
			}
		}
	}
	res := a.newResult(VersionCombine, m, len(groups))
	for _, e := range entries {
		if s := subsumer[e.ID]; s != nil {
			res.eliminate(e, s, cs.pos[subsumedAt[e.ID]])
		}
	}
	for gi, g := range groups {
		ms, as := members[:0], att[:0]
		for i := byPosOff[g.p]; i < byPosOff[g.p+1]; i++ {
			if groupOf[i] == gi {
				ms = append(ms, byPos[i])
				as = append(as, attachedTo(byPos[i])...)
			}
		}
		// Final position: the latest candidate position common to
		// every member and every attached redundant entry.
		pos := ms[0].Latest // defensive; the grouping keeps sets non-empty
		for i, q := range commons[g.lo:g.hi] {
			if i == 0 || a.posDominates(pos, cs.pos[q]) {
				pos = cs.pos[q]
			}
		}
		res.addGroup(pos, ms, as)
	}
	endCombine()
	return res
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

// verdicts lists what combineVerdict can answer: "" (combinable) or the
// reason a pair is not.
var verdicts = [...]string{"", reasonKind, reasonMapping, reasonThreshold, reasonHull, reasonUnknownSize}

// combineVerdict implements the §4.7 compatibility criteria —
// mappings identical or one a subset of the other, combined size under
// the machine threshold (with the NNC/reduction rule of thumb when
// sizes are unknown), and a bounded single-descriptor union — and says
// which one a pair fails, for the observability counters.
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
	l1, l2 := e1.at(level), e2.at(level)
	if e1.Array == e2.Array {
		nh, okh, ok := l1.sec.HullCount(l2.sec.SymSection)
		if !ok || asd.Blowup(nh, l1.sec.n+l2.sec.n, okh && l1.sec.ok && l2.sec.ok) > maxHullBlowup {
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
		if !l1.gridOK || !l2.gridOK {
			return false, reasonMapping
		}
		return sharesDescriptor(l1.grid, l2.grid, reasonHull)
	}
	return sharesDescriptor(l1.sec, l2.sec, reasonUnknownSize)
}

// sharesDescriptor reports whether one descriptor can stand for both
// sections across arrays: their hull must cover both without excessive
// padding on either. Sections of unknown size must be provably
// identical, else the pair is rejected for the given reason.
func sharesDescriptor(x, y counted, unknown string) (bool, string) {
	nh, okh, ok := x.HullCount(y.SymSection)
	if !ok {
		return false, reasonHull
	}
	if !x.ok || !y.ok || !okh {
		if x.Equal(y.SymSection) {
			return true, ""
		}
		return false, unknown
	}
	if float64(2*nh) <= maxHullBlowup*float64(x.n+y.n) {
		return true, ""
	}
	return false, reasonHull
}
