// Package attr is the communication cost-attribution layer of the
// observability subsystem. Its Step is the one record of a simulator
// superstep (one barrier-fenced communication group execution): the
// messages and bytes the ledger charged, the h-relation — the maximum
// bytes any processor sends or receives in that superstep, in the sense
// of Valiant's BSP bridging model — and the blame: the placement site
// that scheduled the traffic (the stable site id minted by
// internal/core placement and carried by the lowered program's comm
// groups) and the originating source statements.
//
// On top of the superstep stream, Analyze computes the communication
// critical path: the heaviest chain of dependent supersteps under a
// configurable BSP cost model (per-byte cost g, per-superstep latency
// L), and ranks placement sites by the cost they contribute to that
// chain — the top-k bottleneck table.
//
// Beyond the standard library the package imports only the machine
// models, a leaf, so package obs can embed its types without an import
// cycle. The simulator's rendezvous leader counts each step's traffic
// in one receiver-order walk and appends the steps in execution order,
// so the stream is bit-identical regardless of how many shards the
// simulator ran on.
package attr

import (
	"fmt"
	"sort"
	"strings"

	"gcao/internal/machine"
)

// CostModel is the BSP cost model attribution is evaluated under: one
// superstep moving an h-relation of h bytes costs L + g·h seconds.
type CostModel struct {
	// GSecPerByte is the per-byte cost g (reciprocal bandwidth).
	GSecPerByte float64 `json:"g_sec_per_byte"`
	// LSec is the per-superstep latency L (barrier plus startup).
	LSec float64 `json:"l_sec"`
}

// CostModelFor derives the model from a machine: g is its receive
// cost per byte, L its send and receive overheads plus wire latency —
// one message round.
func CostModelFor(m machine.Machine) CostModel {
	return CostModel{GSecPerByte: m.PerByte, LSec: m.SendOverhead + m.RecvOverhead + m.Latency}
}

// StepCost evaluates one superstep under the model.
func (m CostModel) StepCost(s Step) float64 {
	return m.LSec + m.GSecPerByte*float64(s.H())
}

// Step is the record of one superstep (one barrier-fenced communication
// group execution).
type Step struct {
	// Index is the superstep's position in execution order.
	Index int `json:"index"`
	// Site is the placement site that scheduled this superstep's
	// traffic (core.Group.SiteID); the blame key.
	Site string `json:"site"`
	// Kind is the communication kind (NNC, SUM, BCAST, GEN).
	Kind string `json:"kind"`
	// Label is the human-readable group label ("group3@B7.top").
	Label string `json:"label"`
	// Arrays are the distributed arrays the superstep moved, sorted.
	Arrays []string `json:"arrays,omitempty"`
	// Sources are the originating source statements (label@line:col)
	// of the site's member entries, deduplicated and sorted.
	Sources []string `json:"sources,omitempty"`
	// Messages and Bytes are the ledger deltas charged to the step.
	Messages int   `json:"messages"`
	Bytes    int64 `json:"bytes"`
	// HIn and HOut are the h-relation: the maximum bytes received and
	// sent by any single processor during the step.
	HIn  int64 `json:"h_in"`
	HOut int64 `json:"h_out"`
}

// H returns the step's h-relation size: max over processors of bytes
// in or out.
func (s Step) H() int64 {
	if s.HIn > s.HOut {
		return s.HIn
	}
	return s.HOut
}

// Run is the attribution record of one simulator run: the superstep
// stream in execution order.
type Run struct {
	Version string `json:"version"`
	Procs   int    `json:"procs"`
	Steps   []Step `json:"steps"`
}

// TotalBytes sums the charged bytes over all supersteps.
func (r *Run) TotalBytes() int64 {
	var n int64
	for _, s := range r.Steps {
		n += s.Bytes
	}
	return n
}

// TotalMessages sums the charged messages over all supersteps.
func (r *Run) TotalMessages() int {
	n := 0
	for _, s := range r.Steps {
		n += s.Messages
	}
	return n
}

// ---------------------------------------------------------------------
// Analysis: per-site aggregation and the communication critical path

// SiteStat aggregates one placement site's supersteps under a cost
// model.
type SiteStat struct {
	Site    string   `json:"site"`
	Kind    string   `json:"kind"`
	Sources []string `json:"sources,omitempty"`
	// Steps/Messages/Bytes total the site's charged traffic; HBytes
	// sums its per-superstep h-relations.
	Steps    int   `json:"steps"`
	Messages int   `json:"messages"`
	Bytes    int64 `json:"bytes"`
	HBytes   int64 `json:"h_bytes"`
	// CostSec is the site's total modeled cost (all its supersteps);
	// CritSec is the part contributed by supersteps on the critical
	// path, with CritSteps counting them.
	CostSec   float64 `json:"cost_sec"`
	CritSec   float64 `json:"crit_sec"`
	CritSteps int     `json:"crit_steps"`
}

// CritStep is one superstep on the critical path.
type CritStep struct {
	Index int    `json:"index"`
	Site  string `json:"site"`
	// CostSec is the step's own modeled cost; CumSec the path cost
	// through it.
	CostSec float64 `json:"cost_sec"`
	CumSec  float64 `json:"cum_sec"`
}

// Report is the result of analyzing a run under a cost model.
type Report struct {
	Version string    `json:"version"`
	Procs   int       `json:"procs"`
	Model   CostModel `json:"model"`
	// TotalSteps/TotalMessages/TotalBytes summarize the whole run.
	TotalSteps    int   `json:"total_steps"`
	TotalMessages int   `json:"total_messages"`
	TotalBytes    int64 `json:"total_bytes"`
	// SerialSec is the fully-serialized bound (the sum of every
	// superstep's cost); CriticalSec the cost of the heaviest chain of
	// dependent supersteps.
	SerialSec   float64 `json:"serial_sec"`
	CriticalSec float64 `json:"critical_sec"`
	// CriticalPath lists the chain in execution order.
	CriticalPath []CritStep `json:"critical_path,omitempty"`
	// Sites ranks every placement site, heaviest critical-path
	// contribution first.
	Sites []SiteStat `json:"sites,omitempty"`
}

// Analyze aggregates a run's supersteps by site and computes the
// communication critical path under the model. Two supersteps are
// dependent when they touch a common array (the later one cannot
// start before the earlier one's barrier) — the DAG the longest-path
// DP runs over. Ties break toward the lower step index, so the report
// is deterministic.
func Analyze(run *Run, model CostModel) *Report {
	rep := &Report{
		Version:       run.Version,
		Procs:         run.Procs,
		Model:         model,
		TotalSteps:    len(run.Steps),
		TotalMessages: run.TotalMessages(),
		TotalBytes:    run.TotalBytes(),
	}
	if len(run.Steps) == 0 {
		return rep
	}

	// Longest-path DP over the array-dependence DAG: pred(j) is the
	// latest earlier step sharing an array with j (one edge per shared
	// array suffices — the latest toucher already transitively depends
	// on the earlier ones through its own predecessor chain).
	cost := make([]float64, len(run.Steps))
	pred := make([]int, len(run.Steps))
	lastTouch := map[string]int{} // array -> latest step index
	for j, s := range run.Steps {
		c := model.StepCost(s)
		rep.SerialSec += c
		best, bestPred := 0.0, -1
		for _, a := range s.Arrays {
			if i, ok := lastTouch[a]; ok {
				if cost[i] > best || (cost[i] == best && (bestPred == -1 || i < bestPred)) {
					best, bestPred = cost[i], i
				}
			}
		}
		cost[j] = best + c
		pred[j] = bestPred
		for _, a := range s.Arrays {
			lastTouch[a] = j
		}
	}
	end := 0
	for j := range cost {
		if cost[j] > cost[end] {
			end = j
		}
	}
	rep.CriticalSec = cost[end]
	var chain []int
	for j := end; j >= 0; j = pred[j] {
		chain = append(chain, j)
	}
	onPath := make([]bool, len(run.Steps))
	for i := len(chain) - 1; i >= 0; i-- {
		j := chain[i]
		onPath[j] = true
		rep.CriticalPath = append(rep.CriticalPath, CritStep{
			Index:   run.Steps[j].Index,
			Site:    run.Steps[j].Site,
			CostSec: model.StepCost(run.Steps[j]),
			CumSec:  cost[j],
		})
	}

	// Per-site aggregation.
	bySite := map[string]*SiteStat{}
	var order []string
	for j, s := range run.Steps {
		st := bySite[s.Site]
		if st == nil {
			st = &SiteStat{Site: s.Site, Kind: s.Kind, Sources: s.Sources}
			bySite[s.Site] = st
			order = append(order, s.Site)
		}
		st.Steps++
		st.Messages += s.Messages
		st.Bytes += s.Bytes
		st.HBytes += s.H()
		c := model.StepCost(s)
		st.CostSec += c
		if onPath[j] {
			st.CritSec += c
			st.CritSteps++
		}
	}
	for _, site := range order {
		rep.Sites = append(rep.Sites, *bySite[site])
	}
	sort.SliceStable(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.CritSec != b.CritSec {
			return a.CritSec > b.CritSec
		}
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		return a.Site < b.Site
	})
	return rep
}

// topSites returns the k heaviest sites (all of them when k <= 0 or
// exceeds the site count).
func (r *Report) topSites(k int) []SiteStat {
	if k <= 0 || k > len(r.Sites) {
		k = len(r.Sites)
	}
	return r.Sites[:k]
}

// FormatBlame renders the top-k bottleneck table plus the critical-
// path summary line as fixed-width text — the `-blame` output of
// hpfc profile and hpfc verify.
func (r *Report) FormatBlame(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== communication blame: top %d of %d sites (version=%s, g=%.3g s/B, L=%.3g s) ==\n",
		len(r.topSites(k)), len(r.Sites), r.Version, r.Model.GSecPerByte, r.Model.LSec)
	fmt.Fprintf(&b, "critical path: %d of %d supersteps, %.6g s of %.6g s serialized\n",
		len(r.CriticalPath), r.TotalSteps, r.CriticalSec, r.SerialSec)
	if len(r.Sites) == 0 {
		b.WriteString("  (no communication supersteps)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %4s  %-28s %-6s %5s %6s %10s %9s %10s  %s\n",
		"rank", "site", "kind", "steps", "msgs", "bytes", "h-bytes", "crit-sec", "sources")
	for i, st := range r.topSites(k) {
		fmt.Fprintf(&b, "  %4d  %-28s %-6s %5d %6d %10d %9d %10.4g  %s\n",
			i+1, st.Site, st.Kind, st.Steps, st.Messages, st.Bytes, st.HBytes,
			st.CritSec, strings.Join(st.Sources, " "))
	}
	return b.String()
}
