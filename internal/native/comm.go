package native

// The channel protocol. Every transfer is a blocking operation on a
// capacity-1 channel guarded by the engine's done latch, so the
// backend never spins: at any GOMAXPROCS (including 1) the Go
// scheduler parks blocked processors and progress is guaranteed as
// long as both endpoints of each pair agree on the per-pair message
// sequence — which the replicated CFG walk guarantees, since every
// processor executes the same communication groups at the same program
// points in the same order.
//
// Buffer lifecycle (zero allocation in steady state). Alongside every
// data channel src→dst rides a recycle channel dst→src. A send
// transfers ownership of the payload slice to the receiver; once the
// receiver has fully consumed the message it returns the slice through
// the recycle channel, and the sender's next getBuf reuses it. At most
// three buffers are ever outstanding per pair (one being consumed, one
// queued in the capacity-1 data channel, one being filled); if a slice
// is ever too small it is replaced by a larger one. Initial capacities
// come from the plan's per-group payload bounds, and after a completed
// run the engine tops every used pair up to three buffers of the
// largest size it needed (settlePools), so a repeat run allocates
// nothing whatever its timing.
//
// Per group kind:
//
//   - exchange (KindShift): each processor derives the element list of
//     the ghost strip from its own loop environment — sender and
//     receiver compute identical lists because the concretized entry
//     sections and the region filters are pure functions of shared
//     state — and one message per neighbour pair carries the packed
//     strip (combining realized literally). Validity travels as a
//     packed bitmap trailer (one bit per strip element) instead of a
//     flag word per element, so only the elements the sender holds
//     current occupy payload words: the wire format is
//     [valid values...][bitmap words][element count], roughly halving
//     exchange bytes versus the value+flag interleaving.
//
//   - broadcast / gather (KindBcast, KindGeneral): a binomial tree
//     rooted at processor 0 (plan.Tree). Owners pack their section
//     elements in section order; payloads concatenate up the tree in
//     DFS pre-order; the root carves the received subtree buffers back
//     into per-processor streams (using per-owner element counts from
//     its own section scan — no headers) and reassembles the full
//     section by popping each element from its owner's stream, exactly
//     the owner-order scan SumSection uses. The full section then
//     descends the tree, each hop forwarding a private copy, and every
//     processor stores the elements it does not own. Critical path:
//     ceil(log2 P) hops up, the same down.
//
//   - global-sum (KindReduce): no data motion here — the combine
//     happened at the SUM statement itself (collectiveSum), which is
//     where the simulator's functional value is produced too; the
//     group only marks the superstep in the listing. The collective
//     gathers raw operands up the tree (never partial sums) so the
//     root's section-order accumulation is bit-identical to the
//     simulator's scan, then broadcasts the total down the tree.

import (
	"fmt"
	"math"

	"gcao/internal/core"
	"gcao/internal/native/prof"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/section"
)

// send transfers ownership of a payload to dst, counting the message
// and its wire words at the sender. A nil channel for the pair is a
// protocol bug, not a user error. The sender must not touch buf again
// until it comes back through the pair's recycle channel.
func (pc *proc) send(dst int, buf []float64) error {
	ch := pc.eng.ch[dst][pc.p]
	if ch == nil {
		return fmt.Errorf("native: no channel %d→%d (protocol bug)", pc.p, dst)
	}
	var t0 int64
	if pc.ring != nil {
		t0 = pc.nowNS()
	}
	select {
	case ch <- buf:
		pc.msgs++
		pc.wire += int64(8 * len(buf))
		if pc.ring != nil {
			pc.ring.Record(prof.Event{
				Start: t0, Dur: pc.nowNS() - t0,
				Step: pc.evStep, Site: pc.evSite, Phase: pc.evSend,
			})
		}
		return nil
	case <-pc.eng.done:
		return pc.eng.err()
	}
}

func (pc *proc) recv(src int) ([]float64, error) {
	ch := pc.eng.ch[pc.p][src]
	if ch == nil {
		return nil, fmt.Errorf("native: no channel %d→%d (protocol bug)", src, pc.p)
	}
	var t0 int64
	if pc.ring != nil {
		t0 = pc.nowNS()
	}
	select {
	case buf := <-ch:
		if pc.ring != nil {
			pc.ring.Record(prof.Event{
				Start: t0, Dur: pc.nowNS() - t0,
				Step: pc.evStep, Site: pc.evSite, Phase: pc.evRecv,
			})
		}
		return buf, nil
	case <-pc.eng.done:
		return nil, pc.eng.err()
	}
}

// getBuf returns an empty payload slice for a message to dst: the
// pair's recycled buffer when one is available, a fresh allocation
// (counted in Stats.AllocBytes) only when the pool is empty or the
// recycled slice is too small for need.
func (pc *proc) getBuf(dst, need int) []float64 {
	var buf []float64
	select {
	case buf = <-pc.eng.free[pc.p][dst]:
	default:
	}
	if cap(buf) < need {
		buf = make([]float64, 0, need)
		pc.allocBytes += int64(8 * need)
		return buf
	}
	return buf[:0]
}

// putBuf returns a fully consumed message from src to the pair's
// recycle channel. The caller must hold no live reference into buf.
func (pc *proc) putBuf(src int, buf []float64) {
	if buf == nil {
		return
	}
	select {
	case pc.eng.free[src][pc.p] <- buf:
	default:
	}
}

// barrier is a full synchronization over the binomial tree: completion
// tokens ascend (a processor signals its parent only after all its
// children signaled), then the release descends. Used only around
// shared-row (replicated array) writes.
func (pc *proc) barrier() error {
	pc.barriers++
	if pc.ring != nil {
		// Barriers guard replicated-array stores; they belong to no
		// placed group.
		pc.evStep, pc.evSite = -1, -1
		pc.evSend, pc.evRecv = prof.PhaseTreeWait, prof.PhaseTreeWait
	}
	t := pc.eng.pl.Tree
	for _, c := range t.Children[pc.p] {
		if _, err := pc.recv(c); err != nil {
			return err
		}
	}
	if pc.p != 0 {
		if err := pc.send(t.Parent[pc.p], nil); err != nil {
			return err
		}
		if _, err := pc.recv(t.Parent[pc.p]); err != nil {
			return err
		}
	}
	for _, c := range t.Children[pc.p] {
		if err := pc.send(c, nil); err != nil {
			return err
		}
	}
	return nil
}

// bcastValue broadcasts one float64 from processor 0 down the tree,
// returning the value on every processor (bit-identical: the bits are
// copied, never recomputed). Used for condition agreement and SUM
// totals.
func (pc *proc) bcastValue(v float64) (float64, error) {
	t := pc.eng.pl.Tree
	if pc.p != 0 {
		buf, err := pc.recv(t.Parent[pc.p])
		if err != nil {
			return 0, err
		}
		v = buf[0]
		pc.putBuf(t.Parent[pc.p], buf)
	}
	for _, c := range t.Children[pc.p] {
		b := pc.getBuf(c, 1)
		b = append(b, v)
		pc.hops++
		if err := pc.send(c, b); err != nil {
			return 0, err
		}
	}
	pc.bytes += 8 * int64(len(t.Children[pc.p]))
	return v, nil
}

// execComm executes the communication groups placed at one position
// (nil: none), in placement order — the exact COMM sequence the codegen
// listing prints there.
func (pc *proc) execComm(c *plan.Comm) error {
	if c == nil {
		return nil
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		g := op.Group
		step := pc.nextStep
		pc.nextStep++
		pc.colls++
		pc.ops[g.Kind]++
		if pc.ring != nil {
			pc.evStep, pc.evSite = step, int32(g.ID)
			pc.evSend = prof.PhaseSend
			if g.Kind == core.KindShift {
				pc.evRecv = prof.PhaseRecvWait
			} else {
				pc.evRecv = prof.PhaseTreeWait
			}
		}
		var err error
		switch g.Kind {
		case core.KindShift:
			err = pc.shiftExchange(op)
		case core.KindBcast, core.KindGeneral:
			err = pc.bcastGather(op)
		case core.KindReduce:
			// Combine already performed at the SUM statement (the
			// group's position is after it) — the group only marks the
			// superstep. Claim the SUM's pending events for this step
			// and drop a zero-duration marker so the fold sees the
			// step's site even when the collective moved nothing.
			if pc.ring != nil {
				pc.ring.PatchPending(step, int32(g.ID))
				pc.ring.Record(prof.Event{
					Start: pc.nowNS(), Dur: 0,
					Step: step, Site: int32(g.ID), Phase: prof.PhaseSum,
				})
			}
		}
		if err != nil {
			return err
		}
	}
	if pc.ring != nil {
		pc.evStep, pc.evSite = -1, -1
	}
	return nil
}

// shiftExchange performs one ghost-strip exchange. Data moves from
// grid coordinate c to c-sign along g.Map.GridDim: this processor
// sends its strip to the neighbour at coordinate c-sign (if any) and
// receives the neighbour strip from coordinate c+sign (if any). The
// payload carries only the elements the sender holds current plus a
// packed validity bitmap trailer, reproducing the simulator's rule
// that only valid elements travel. Both legs enumerate a strip through
// ArrayMem.StripRuns with the same arguments — the strip's sender —
// and so visit the same list.
func (pc *proc) shiftExchange(op *plan.CommOp) error {
	ents := op.Concretize(pc.fr, &pc.entbuf)
	g := op.Group
	gridDim, sign, width := g.Map.GridDim, g.Map.Sign, g.Map.Width
	grid := pc.eng.pl.A.Unit.Grid

	// Send leg: pack the valid strip elements and the validity bitmap
	// for the receiving neighbour. Wire format:
	// [values...][bitmap words][element count].
	if dst, ok := grid.Neighbor(pc.p, gridDim, -sign); ok {
		payload := pc.getBuf(dst, op.Bound+op.Bound/64+2)
		bits := pc.bitbuf[:0]
		n := 0
		for _, es := range ents {
			data, valid := es.Am.Data[pc.p], es.Am.Valid[pc.p]
			es.Am.StripRuns(es.Sec, pc.p, es.ShiftDim, sign, width, pc.fr.Scratch, func(off, m int) {
				for i := off; i < off+m; i++ {
					if n%64 == 0 {
						bits = append(bits, 0)
					}
					if valid[i] {
						bits[n/64] |= 1 << (n % 64)
						payload = append(payload, data[i])
						pc.bytes += 8
					}
					n++
				}
			})
		}
		pc.bitbuf = bits
		for _, w := range bits {
			payload = append(payload, math.Float64frombits(w))
		}
		payload = append(payload, float64(n))
		if err := pc.send(dst, payload); err != nil {
			return err
		}
	}

	// Receive leg: unpack the neighbour's strip into our own rows,
	// consulting the bitmap trailer, then recycle the buffer.
	if src, ok := grid.Neighbor(pc.p, gridDim, sign); ok {
		buf, err := pc.recv(src)
		if err != nil {
			return err
		}
		if len(buf) == 0 {
			return fmt.Errorf("native: exchange %d→%d protocol mismatch: empty payload", src, pc.p)
		}
		n := int(buf[len(buf)-1])
		nw := (n + 63) / 64
		nv := len(buf) - 1 - nw
		if nv < 0 {
			return fmt.Errorf("native: exchange %d→%d protocol mismatch: %d words cannot hold %d elements", src, pc.p, len(buf), n)
		}
		words := buf[nv : len(buf)-1]
		k, vpos := 0, 0
		for _, es := range ents {
			data, valid := es.Am.Data[pc.p], es.Am.Valid[pc.p]
			es.Am.StripRuns(es.Sec, src, es.ShiftDim, sign, width, pc.fr.Scratch, func(off, m int) {
				for i := off; i < off+m; i++ {
					if k < n && math.Float64bits(words[k/64])&(1<<uint(k%64)) != 0 {
						data[i], valid[i] = buf[vpos], true
						vpos++
					}
					k++
				}
			})
		}
		if k != n || vpos != nv {
			return fmt.Errorf("native: exchange %d→%d protocol mismatch: %d/%d elements packed, %d/%d expected", src, pc.p, n, nv, k, vpos)
		}
		pc.putBuf(src, buf)
	}
	return nil
}

// gatherUp moves this processor's contribution (already packed into
// pc.minebuf in section order) up the binomial tree. Intermediate
// nodes concatenate — own elements, then each child subtree's payload
// in child order, which is DFS pre-order by induction — and forward to
// the parent; no floating-point operation happens on the way up, so
// the root sees every operand bit-exact. At the root, gatherUp carves
// the child buffers into per-processor streams using cnt (the
// element count each processor contributed, from the caller's own
// section scan) and returns them; the caller must call releaseGather
// once the streams are consumed. Non-roots return nil.
//
// bound is a per-processor payload bound used to size the up-edge
// buffer once; exceeding it grows the buffer one time, after which the
// grown slice recycles.
func (pc *proc) gatherUp(cnt []int, bound int) ([][]float64, error) {
	t := pc.eng.pl.Tree
	if pc.p != 0 {
		out := pc.getBuf(t.Parent[pc.p], bound)
		out = append(out, pc.minebuf...)
		for _, c := range t.Children[pc.p] {
			b, err := pc.recv(c)
			if err != nil {
				return nil, err
			}
			out = append(out, b...)
			pc.putBuf(c, b)
		}
		pc.hops++
		return nil, pc.send(t.Parent[pc.p], out)
	}
	// Root: keep the child buffers and index per-processor streams into
	// them. streams[q] aliases a child buffer until releaseGather.
	streams := pc.streams
	streams[0] = pc.minebuf
	pc.childbufs = pc.childbufs[:0]
	for _, c := range t.Children[0] {
		b, err := pc.recv(c)
		if err != nil {
			return nil, err
		}
		pc.childbufs = append(pc.childbufs, b)
		off := 0
		for _, q := range t.Subtree(c) {
			if off+cnt[q] > len(b) {
				return nil, fmt.Errorf("native: gather from %d short: %d words for processor %d at offset %d", c, len(b), q, off)
			}
			streams[q] = b[off : off+cnt[q]]
			off += cnt[q]
		}
		if off != len(b) {
			return nil, fmt.Errorf("native: gather from %d protocol mismatch: %d words, %d expected", c, len(b), off)
		}
	}
	return streams, nil
}

// releaseGather recycles the child buffers a root-side gatherUp left
// in flight. No stream returned by gatherUp may be read afterwards.
func (pc *proc) releaseGather() {
	t := pc.eng.pl.Tree
	for i, c := range t.Children[0] {
		pc.putBuf(c, pc.childbufs[i])
	}
	pc.childbufs = pc.childbufs[:0]
}

// bcastDown broadcasts the root's assembled buffer down the tree: each
// hop forwards a private copy to every child (ownership of a sent
// buffer transfers to the receiver, so forwarding shares nothing),
// then returns the received buffer for local consumption. The root
// passes its own assembled slice; non-roots pass nil and receive.
// Non-roots must putBuf the returned slice to their parent when done.
func (pc *proc) bcastDown(full []float64) ([]float64, error) {
	t := pc.eng.pl.Tree
	if pc.p != 0 {
		var err error
		if full, err = pc.recv(t.Parent[pc.p]); err != nil {
			return nil, err
		}
	}
	for _, c := range t.Children[pc.p] {
		b := pc.getBuf(c, len(full))
		b = append(b, full...)
		pc.hops++
		pc.bytes += 8 * int64(len(full))
		if err := pc.send(c, b); err != nil {
			return nil, err
		}
	}
	return full, nil
}

// packOwned packs this processor's elements of a section, in section
// order, into pc.minebuf; the root also counts every processor's
// contribution into pc.cnt, for stream reconstruction.
func (pc *proc) packOwned(am *runtime.ArrayMem, sec section.Section) {
	mine, cnt := pc.minebuf[:0], pc.cnt
	clear(cnt)
	am.OwnerRuns(sec, pc.fr.Scratch, func(o, off, n int) {
		if o == pc.p {
			mine = append(mine, am.Data[o][off:off+n]...)
		}
		if pc.p == 0 {
			cnt[o] += n
		}
	})
	if pc.p != 0 {
		pc.bytes += 8 * int64(len(mine))
	}
	pc.minebuf = mine
}

// bcastGather performs one broadcast/gather group over the binomial
// tree: per entry, owners pack their section elements in section
// order, operands ascend the tree, the root reassembles the full
// section by popping each run from its owner's stream (the same
// owner-order scan SumSection uses), the section descends the tree,
// and every processor stores the elements it does not own.
func (pc *proc) bcastGather(op *plan.CommOp) error {
	for _, es := range op.Concretize(pc.fr, &pc.entbuf) {
		am := es.Am
		pc.packOwned(am, es.Sec)
		streams, err := pc.gatherUp(pc.cnt, op.Bound)
		if err != nil {
			return err
		}

		var full []float64
		if pc.p == 0 {
			full = pc.fullbuf[:0]
			pos := pc.pos
			clear(pos)
			am.OwnerRuns(es.Sec, pc.fr.Scratch, func(o, _, n int) {
				full = append(full, streams[o][pos[o]:pos[o]+n]...)
				pos[o] += n
			})
			pc.fullbuf = full
			pc.releaseGather()
		}
		if full, err = pc.bcastDown(full); err != nil {
			return err
		}

		k := 0
		am.OwnerRuns(es.Sec, pc.fr.Scratch, func(o, off, n int) {
			if o != pc.p {
				copy(am.Data[pc.p][off:off+n], full[k:k+n])
				for i := off; i < off+n; i++ {
					am.Valid[pc.p][i] = true
				}
			}
			k += n
		})
		if pc.p != 0 {
			pc.putBuf(pc.eng.pl.Tree.Parent[pc.p], full)
		}
	}
	return nil
}

// collectiveSum combines a distributed SUM: owners stream their
// section elements up the binomial tree as raw operands, the root
// replays the simulator's global section-order scan — popping each
// run from its owner's stream, so the floating-point accumulation
// order is bit-identical to SumSection — and the total descends the
// tree.
func (pc *proc) collectiveSum(sc *plan.Sum) (float64, error) {
	if pc.ring != nil {
		// The combine runs at the SUM statement, before its global-sum
		// marker group's position assigns a superstep index: record
		// the legs as pending and let the marker patch them.
		pc.evStep, pc.evSite = prof.PendingStep, -1
		pc.evSend, pc.evRecv = prof.PhaseSum, prof.PhaseSum
	}
	sec := sc.Section(pc.fr)
	if pc.fr.Err != nil {
		return 0, pc.evalErr()
	}
	pc.packOwned(sc.Am, sec)
	streams, err := pc.gatherUp(pc.cnt, sc.Bound)
	if err != nil {
		return 0, err
	}
	if pc.p != 0 {
		return pc.bcastValue(0)
	}

	pos := pc.pos
	clear(pos)
	total := 0.0
	sc.Am.OwnerRuns(sec, pc.fr.Scratch, func(o, _, n int) {
		for _, v := range streams[o][pos[o] : pos[o]+n] {
			total += v
		}
		pos[o] += n
	})
	pc.releaseGather()
	return pc.bcastValue(total)
}
