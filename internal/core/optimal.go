package core

import (
	"cmp"
	"fmt"
	"slices"
)

// The general placement-selection problem — pick one candidate
// position per reference minimizing total message cost — is NP-hard
// (Claim 6.1: an approximation-preserving reduction from chromatic
// number), which is why the compiler uses the greedy heuristic of
// Fig. 9(g). For small programs an exhaustive search over the
// candidate assignment space is feasible; PlaceOptimal implements it
// so the test suite and the ablation benchmarks can measure how close
// the greedy choice gets.

// DynamicMessages estimates the total number of communication
// operations executed at run time under a placement: each group
// counts once per execution of its position (the product of the
// enclosing loops' trip counts).
func (a *Analysis) DynamicMessages(res *Result) (float64, error) {
	total := 0.0
	for _, g := range res.Groups {
		execs, err := a.TripProduct(g.Pos.Block.Loop)
		if err != nil {
			return 0, err
		}
		total += execs
	}
	return total, nil
}

// PlaceOptimal exhaustively searches the candidate assignment space
// for the placement minimizing the dynamic message count, grouping
// co-located compatible entries exactly as the greedy placer would.
// It fails when the space exceeds maxCombos assignments. Redundant
// entries are eliminated first (with the same global procedure the
// greedy placer uses), so the search covers the §4.7 choice step.
func (a *Analysis) PlaceOptimal(opts Options, maxCombos int) (*Result, error) {
	// Run the global pipeline once to obtain the post-elimination
	// entry set and attachments.
	ref, err := a.Place(Options{
		Version:               VersionCombine,
		CombineThresholdBytes: opts.CombineThresholdBytes,
		DisableSubsetElim:     opts.DisableSubsetElim,
	})
	if err != nil {
		return nil, err
	}
	var live []*Entry
	for _, e := range a.CommEntries() {
		if ref.Redundant[e.ID] == nil {
			live = append(live, e)
		}
	}
	attached := map[*Entry][]*Entry{}
	for id, by := range ref.Redundant {
		if by == nil {
			continue
		}
		root := by
		for ref.Redundant[root.ID] != nil {
			root = ref.Redundant[root.ID]
		}
		attached[root] = append(attached[root], a.Entries[id])
	}
	// Candidate sets constrained by attachments.
	cands := make([][]Position, len(live))
	combos := 1
	for i, e := range live {
		set := map[Position]int{}
		for _, p := range e.Candidates {
			set[p]++
		}
		need := 1
		for _, r := range attached[e] {
			need++
			for _, p := range r.Candidates {
				if _, ok := set[p]; ok {
					set[p]++
				}
			}
		}
		for _, p := range e.Candidates {
			if set[p] == need {
				cands[i] = append(cands[i], p)
			}
		}
		if len(cands[i]) == 0 {
			cands[i] = []Position{e.Latest}
		}
		combos *= len(cands[i])
		if combos > maxCombos {
			return nil, fmt.Errorf("core: optimal search space %d exceeds limit %d", combos, maxCombos)
		}
	}

	assign := make([]int, len(live))
	best := make([]int, len(live))
	bestCost := -1.0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(live) {
			cost, err := a.assignmentCost(live, assign, cands, opts)
			if err != nil {
				return err
			}
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				copy(best, assign)
			}
			return nil
		}
		for k := range cands[i] {
			assign[i] = k
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}

	// Materialize the best assignment as a Result.
	res := a.newResult(VersionCombine, len(a.CommEntries()), 0)
	copy(res.Redundant, ref.Redundant)
	byPos := map[Position][]*Entry{}
	for i, e := range live {
		byPos[cands[i][best[i]]] = append(byPos[cands[i][best[i]]], e)
	}
	order := make([]Position, 0, len(byPos))
	for p := range byPos {
		order = append(order, p)
	}
	slices.SortFunc(order, comparePos)
	for _, p := range order {
		for _, members := range a.partition(byPos[p], p, opts) {
			var att []*Entry
			for _, m := range members {
				att = append(att, attached[m]...)
			}
			res.addGroup(p, members, att)
		}
	}
	a.sortGroups(res)
	return res, nil
}

// assignmentCost evaluates one candidate assignment: co-located
// compatible entries share a message.
func (a *Analysis) assignmentCost(live []*Entry, assign []int, cands [][]Position, opts Options) (float64, error) {
	byPos := map[Position][]*Entry{}
	for i, e := range live {
		p := cands[i][assign[i]]
		byPos[p] = append(byPos[p], e)
	}
	total := 0.0
	for p, es := range byPos {
		execs, err := a.TripProduct(p.Block.Loop)
		if err != nil {
			return 0, err
		}
		total += execs * float64(len(a.partition(es, p, opts)))
	}
	return total, nil
}

// partition groups co-located entries into combinable sets with the
// same first-fit rule the greedy placer uses.
func (a *Analysis) partition(es []*Entry, p Position, opts Options) [][]*Entry {
	var groups [][]*Entry
	var sizes []packed
	for _, e := range es {
		placed := false
		if !opts.DisableCombining {
			for gi := range groups {
				ok := true
				for _, m := range groups[gi] {
					if can, _ := a.combineVerdict(e, m, p.Level(), opts); !can {
						ok = false
						break
					}
				}
				if ok && sizes[gi].fits(e, p.Level(), opts) {
					groups[gi] = append(groups[gi], e)
					sizes[gi].add(e, p.Level())
					placed = true
					break
				}
			}
		}
		if !placed {
			groups = append(groups, []*Entry{e})
			sizes = append(sizes, packed{})
			sizes[len(sizes)-1].add(e, p.Level())
		}
	}
	return groups
}

// comparePos orders positions by block ID, then slot.
func comparePos(p, q Position) int {
	return cmp.Or(cmp.Compare(p.Block.ID, q.Block.ID), cmp.Compare(p.After, q.After))
}
