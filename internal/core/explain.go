package core

import (
	"gcao/internal/obs"
)

// recordDecisions writes one obs.Decision per communication entry —
// including coalesced diagonals — onto the recorder after a placement:
// the machine-readable version of the annotation the paper's prototype
// wrote into its listing file (Fig. 6). Entries are emitted in ID
// order, so the log is deterministic.
func (a *Analysis) recordDecisions(rec *obs.Recorder, res *Result) {
	if rec == nil {
		return
	}
	groupOf := make([]*Group, len(a.Entries))
	for _, g := range res.Groups {
		for _, e := range g.Entries {
			groupOf[e.ID] = g
		}
	}
	// Each group's site label, derived once for all its members, and
	// each position's text, formatted once for every entry whose range,
	// candidates or group name it: indexed by the position's dense slot.
	sites := make([]string, len(res.Groups))
	posText := make([]string, a.slotBase[len(a.slotBase)-1])
	pos := func(p Position) string {
		if p.Block == nil {
			return p.String()
		}
		s := &posText[a.slot(p)]
		if *s == "" {
			*s = p.String()
		}
		return *s
	}
	for _, e := range a.Entries {
		d := obs.Decision{
			Version:    res.Version.String(),
			Entry:      e.ID,
			Array:      e.Array,
			Kind:       e.Kind.String(),
			CommLevel:  e.CommLevel,
			SubsumedBy: -1,
			Group:      -1,
		}
		if e.Coalesced {
			d.Outcome = obs.OutcomeCoalesced
			for _, c := range e.Carriers {
				d.Carriers = append(d.Carriers, c.ID)
			}
			rec.AddDecision(d)
			continue
		}
		d.Earliest = pos(e.Earliest)
		d.Latest = pos(e.Latest)
		if len(e.Candidates) > 0 {
			d.Candidates = make([]string, len(e.Candidates))
			for i, p := range e.Candidates {
				d.Candidates[i] = pos(p)
			}
		}
		if by := res.Redundant[e.ID]; by != nil {
			d.Outcome = obs.OutcomeSubsumed
			d.SubsumedBy = by.ID
			if p := res.subsumedAt[e.ID]; p.Block != nil {
				d.SubsumedAt = pos(p)
			}
		} else if g := groupOf[e.ID]; g != nil {
			d.Outcome = obs.OutcomePlaced
			d.Group = g.ID
			d.GroupPos = pos(g.Pos)
			d.GroupSize = len(g.Entries)
			d.Combined = len(g.Entries) > 1
			if sites[g.ID] == "" {
				sites[g.ID] = g.SiteID()
			}
			d.Site = sites[g.ID]
		}
		rec.AddDecision(d)
	}
}
