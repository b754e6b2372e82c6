package spmd

import (
	"math"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/plan"
)

// Cost is the analytic per-processor cost estimate of one program
// under one placement: the CPU and network seconds that make up the
// paper's normalized stacked bars, plus dynamic message statistics.
type Cost struct {
	CPU      float64
	Net      float64
	Messages float64 // point-to-point messages received per processor
	Bytes    float64 // bytes received per processor
}

// Total returns the bulk-synchronous completion time estimate.
func (c Cost) Total() float64 { return c.CPU + c.Net }

// Estimate walks the program symbolically, multiplying statement and
// communication costs by loop trip counts instead of iterating, so
// paper-scale problems (gravity at n=325 is 34M points) are costed
// instantly. It assumes balanced block distributions, which holds for
// the paper's benchmarks.
func Estimate(res *core.Result, m machine.Machine) (Cost, error) {
	a := res.Analysis
	p := a.Unit.Grid.NumProcs()
	var cost Cost

	// Computation: owner-computes spreads distributed-LHS statements
	// over the processors; replicated work is paid by everyone.
	for _, st := range a.G.Stmts {
		iters, err := a.TripProduct(st.Block.Loop)
		if err != nil {
			return Cost{}, err
		}
		flops := float64(plan.CountFlops(st.Assign.RHS))
		// SUM over a section adds one flop per element, split across
		// owners.
		sumElems, err := sumSectionElems(a, st)
		if err != nil {
			return Cost{}, err
		}
		lhsArr := a.Unit.Arrays[st.Assign.LHS.Name]
		distributed := lhsArr != nil && lhsArr.Dist != nil
		perProcIters := iters
		if distributed {
			perProcIters = iters / float64(p)
		}
		cost.CPU += flops * perProcIters * m.FlopTime
		cost.CPU += float64(sumElems) * iters / float64(p) * m.FlopTime
	}

	// Communication.
	log2p := math.Ceil(math.Log2(float64(p)))
	if p == 1 {
		log2p = 0
	}
	for _, g := range res.Groups {
		execs, err := a.TripProduct(g.Pos.Block.Loop)
		if err != nil {
			return Cost{}, err
		}
		level := g.Pos.Level()
		switch g.Kind {
		case core.KindShift:
			bytes := 0
			for _, e := range g.Entries {
				b, ok := e.BytesAt(a, level)
				if !ok {
					continue
				}
				bytes += b
			}
			// Each exchange: one packed message in and one out per
			// processor (interior processors; boundaries do less).
			per := m.MsgTime(bytes) + 2*m.BcopyTime(bytes)
			cost.Net += execs * per
			cost.Messages += execs
			cost.Bytes += execs * float64(bytes)
		case core.KindReduce:
			bytes := len(g.Entries) * 8
			cost.Net += execs * m.ReduceTime(bytes, p)
			cost.Messages += execs * log2p
			cost.Bytes += execs * float64(bytes) * log2p
		case core.KindBcast, core.KindGeneral:
			bytes := 0
			for _, e := range g.Entries {
				if n, ok := e.SectionAt(a, level).NumElems(); ok {
					bytes += n * 8
				}
			}
			cost.Net += execs * (log2p*m.MsgTime(0) + float64(bytes)*m.PerByte + 2*m.BcopyTime(bytes))
			cost.Messages += execs * log2p
			cost.Bytes += execs * float64(bytes)
		}
	}
	return cost, nil
}

// sumSectionElems returns the total element count summed over by SUM
// calls in the statement's RHS (0 when there is none).
func sumSectionElems(a *core.Analysis, st *cfg.Stmt) (int, error) {
	total := 0
	var walkErr error
	ast.WalkExprs(st.Assign.RHS, func(e ast.Expr) {
		c, ok := e.(*ast.Call)
		if !ok || c.Func != "sum" || len(c.Args) != 1 || walkErr != nil {
			return
		}
		ref, ok := c.Args[0].(*ast.Ref)
		if !ok {
			return
		}
		arr := a.Unit.Arrays[ref.Name]
		if arr == nil {
			return
		}
		n := 1
		if len(ref.Subs) == 0 {
			n = arr.Size()
		} else {
			for i, sub := range ref.Subs {
				if sub.Kind == ast.SubExpr {
					continue // one element per outer iteration
				}
				lo, hi, step := arr.Lo[i], arr.Hi[i], 1
				var err error
				if sub.Lo != nil {
					if lo, err = a.Unit.EvalInt(sub.Lo); err != nil {
						walkErr = err
						return
					}
				}
				if sub.Hi != nil {
					if hi, err = a.Unit.EvalInt(sub.Hi); err != nil {
						walkErr = err
						return
					}
				}
				if sub.Step != nil {
					if step, err = a.Unit.EvalInt(sub.Step); err != nil {
						walkErr = err
						return
					}
				}
				if hi >= lo {
					n *= (hi-lo)/step + 1
				}
			}
		}
		total += n
	})
	return total, walkErr
}

// NormalizedBars runs the three compiler versions over one analysis
// and returns their estimated costs normalized so the original
// version's total is 1.0 — the exact quantity plotted in Fig. 10(b–f).
type Bar struct {
	Version core.Version
	CPU     float64 // normalized CPU segment
	Net     float64 // normalized network segment
	Raw     Cost
}

// EstimateVersions places the program under orig, nored and comb and
// returns the three normalized bars.
func EstimateVersions(a *core.Analysis, m machine.Machine) ([]Bar, error) {
	versions := []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}
	var bars []Bar
	var base float64
	for i, v := range versions {
		res, err := a.Place(core.Options{Version: v})
		if err != nil {
			return nil, err
		}
		c, err := Estimate(res, m)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = c.Total()
		}
		if base == 0 {
			base = 1
		}
		bars = append(bars, Bar{Version: v, CPU: c.CPU / base, Net: c.Net / base, Raw: c})
	}
	return bars, nil
}
