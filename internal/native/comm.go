package native

// The channel protocol. Every transfer is a plain blocking operation on
// the pair's capacity-1 channel — ch <- buf, <-ch — followed by one load
// of the engine's failed flag. Nothing polls and nothing selects: at any
// GOMAXPROCS (including 1) the Go scheduler parks blocked processors, and
// progress is guaranteed as long as both endpoints of each pair agree on
// the per-pair message sequence — which the replicated CFG walk
// guarantees, since every processor executes the same communication
// groups at the same program points in the same order.
//
// Buffer lifecycle (zero allocation in steady state). The payloads of a
// directed pair live in a ring of three slices its sender owns (link):
// message k is packed into slot k mod 3, counting from 0 in every run,
// and a slot is replaced only when it is too small. The sender sizes a
// slot at getBuf from the message it is about to pack — a shift leg
// counts its valid elements first, a gather leg receives its children's
// payloads first — so a cold run allocates no more fabric bytes than it
// sends, and since a repeat of a run sends the same sequence through the
// same slots it allocates nothing, whatever the timing. No buffer is
// ever handed back: the channel's own ordering is the hand-over. The
// receiver is done with message k before it receives k+1 (it keeps no
// reference past its next receive from the pair); that receive happens
// before the send of k+2 completes (capacity 1); the sender fills k+3,
// the slot's next tenant, only after that send.
//
// Failure protocol. engine.fail — the single way a run stops early, and
// what a context's cancellation would call — records the first error,
// sets the flag and starts the reaper, which sweeps the pairs until the
// last processor has left: a non-blocking receive completes a parked
// send, a non-blocking nil send wakes a parked receive. Every processor
// is either computing towards its next channel operation, after which it
// reads the flag, or parked in one, which the next sweep completes and
// after which it reads the flag; either way it returns the error without
// touching what it received (which may be the reaper's nil, or a message
// out of sequence) and without another channel operation, so the run
// ends, Run waits for the reaper, and the reaper's last sweep leaves the
// channels empty. Processors run on runners (runner.go), which park
// before they mark their processor done: when Run returns, every
// processor's goroutine is parked on the runner stack, or gone if it was
// a one-shot goroutine past the runner bound, and none of them blocks on
// a channel of the engine. The data channels are never closed (a close
// races with a concurrent send) and no operation selects on a shared done
// channel (a two-case select locks the pair's channel and the one channel
// all P goroutines share, on every message of every successful run). For
// the rings a failure changes one step of the argument: the reaper may take
// k+1 in the receiver's place, while the receiver still reads k — but
// the send of k+2 that lets complete is followed by the flag load, and
// the sender never fills k+3.
//
// Per group kind:
//
//   - exchange (KindShift): each processor derives the run lists of
//     the strips it sends and receives from its own loop environment —
//     sender and receiver compute identical lists because the
//     concretized entry sections and the strip geometry are pure
//     functions of shared state — in its plan.Schedule of the exchange,
//     replayed while the slots the sections read hold and translated
//     while they only move the strips, and one message per neighbour pair
//     (CommOp.Neighbors) carries the packed strip (combining realized
//     literally). Validity travels as a
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
//   - global-sum (KindReduce): a SUM is split across the placement's
//     slack (§6.2). At its statement every processor sends its gather
//     leg (gatherSum): raw operands, never partial sums, so the root's
//     section-order accumulation is bit-identical to the simulator's
//     scan. The group settles the statements lowering deferred to it
//     (CommOp.Settles): the totals descend, the statements assign. Each
//     directed pair carries what it did when a SUM ran whole, in order;
//     only the interleaving across pairs changes.

import (
	"fmt"
	"math"

	"gcao/internal/core"
	"gcao/internal/native/prof"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/section"
)

// send passes a payload (or a nil barrier token) to dst, counting the
// message and its wire words at the sender. A missing pair is a protocol
// bug, not a user error. The sender writes buf again only as the slot's
// next tenant (see link).
func (pc *proc) send(dst int, buf []float64) error {
	l := pc.eng.pair(dst, pc.p)
	if l == nil {
		return fmt.Errorf("native: no channel %d→%d (protocol bug)", pc.p, dst)
	}
	var t0 int64
	if pc.ring != nil {
		t0 = pc.nowNS()
	}
	l.ch <- buf
	if pc.eng.failed.Load() {
		return pc.eng.err()
	}
	pc.msgs++
	pc.wire += int64(8 * len(buf))
	if pc.ring != nil {
		pc.ring.Record(prof.Event{
			Start: t0, Dur: pc.nowNS() - t0,
			Step: pc.evStep, Site: pc.evSite, Phase: pc.evSend,
		})
	}
	return nil
}

// recv takes the pair's next message from src. The payload is the
// receiver's to read until its next receive from src.
func (pc *proc) recv(src int) ([]float64, error) {
	l := pc.eng.pair(pc.p, src)
	if l == nil {
		return nil, fmt.Errorf("native: no channel %d→%d (protocol bug)", src, pc.p)
	}
	var t0 int64
	if pc.ring != nil {
		t0 = pc.nowNS()
	}
	buf := <-l.ch
	if pc.eng.failed.Load() {
		return nil, pc.eng.err()
	}
	if pc.ring != nil {
		pc.ring.Record(prof.Event{
			Start: t0, Dur: pc.nowNS() - t0,
			Step: pc.evStep, Site: pc.evSite, Phase: pc.evRecv,
		})
	}
	return buf, nil
}

// getBuf returns an empty payload slice of capacity need or more for the
// processor's next message to dst: the pair's next slot, replaced by a
// fresh allocation (counted in Stats.AllocBytes) only when it is too
// small. need is the length of the message the caller packs next, so
// packing never outgrows the slot and a slot is never larger than the
// longest message it has carried.
func (pc *proc) getBuf(dst, need int) []float64 {
	l := pc.eng.pair(dst, pc.p)
	slot := &l.slot[l.next%len(l.slot)]
	l.next++
	if cap(*slot) < need {
		*slot = make([]float64, 0, need)
		pc.allocBytes += int64(8 * need)
	}
	return (*slot)[:0]
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
	t := pc.eng.prog.Plan.Tree
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
	t := pc.eng.prog.Plan.Tree
	if pc.p != 0 {
		buf, err := pc.recv(t.Parent[pc.p])
		if err != nil {
			return 0, err
		}
		v = buf[0]
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

// Comm executes the communication groups placed at one position
// (nil: none), in placement order — the exact COMM sequence the program's
// listing prints there.
func (pc *proc) Comm(c *plan.Comm) error {
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
			// The gathers ran at the SUM statements, before this position
			// gave them a step: claim their pending events first, then
			// settle under the step (set each time: a replicated store's
			// barriers change it), and drop a zero-duration marker so the
			// fold sees the step's site even when nothing moved.
			if pc.ring != nil {
				pc.ring.PatchPending(step, int32(g.ID))
			}
			for _, st := range op.Settles {
				pc.evStep, pc.evSite, pc.evSend, pc.evRecv = step, int32(g.ID), prof.PhaseSum, prof.PhaseSum
				if err = pc.settle(st); err != nil {
					break
				}
			}
			if pc.ring != nil {
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

// shiftExchange performs one ghost-strip exchange: this processor sends
// its strip to the schedule's Dst and receives the neighbour strip from
// its Src (CommOp.Neighbors). The payload carries only the elements the
// sender holds current plus a packed validity bitmap trailer, reproducing
// the simulator's rule that only valid elements travel: the sender sets
// the bits of the strip's rows inside its owned set and its valid boxes,
// and the receiver makes the strip valid whole when every bit is set, else
// the sender's owned part and each run of set bits outside it. Both legs
// read the exchange's schedule, whose lists were enumerated with the same
// arguments — the strip's sender — on both processors, and so visit the
// same elements.
func (pc *proc) shiftExchange(op *plan.CommOp) error {
	sch := pc.eng.sched.At(pc.fr, op, pc.p)
	dst, src := sch.Dst, sch.Src

	// Send leg: mark the valid strip elements, size the slot to them, then
	// pack them and the validity bitmap for the receiving neighbour. Wire
	// format: [values...][bitmap words][element count].
	if dst >= 0 {
		bits := pc.bitbuf[:0]
		n, valid := 0, 0
		for _, e := range sch.Ents {
			k := n
			for _, r := range e.Send {
				n += r.N
			}
			for len(bits)*64 < n {
				bits = append(bits, 0)
			}
			valid += e.Am.ValidBits(pc.p, section.Section{Dims: e.Sent}, bits, k, pc.fr.Scratch)
		}
		payload := pc.getBuf(dst, valid+len(bits)+1)
		k := 0
		for _, e := range sch.Ents {
			data, base := e.Am.Data[pc.p], e.Off-e.Am.Base(pc.p)
			for _, r := range e.Send {
				at := r.Off + base
				if bits.All(k, r.N) {
					payload = append(payload, data[at:at+r.N]...)
				} else {
					for i := range r.N {
						if bits.Has(k + i) {
							payload = append(payload, data[at+i])
						}
					}
				}
				k += r.N
			}
		}
		pc.bitbuf = bits
		pc.bytes += int64(8 * len(payload))
		for _, w := range bits {
			payload = append(payload, math.Float64frombits(w))
		}
		payload = append(payload, float64(n))
		if err := pc.send(dst, payload); err != nil {
			return err
		}
	}

	// Receive leg: unpack the neighbour's strip into our own rows,
	// consulting the bitmap trailer.
	if src >= 0 {
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
		bits := pc.bitbuf[:0]
		for _, w := range buf[nv : len(buf)-1] {
			bits = append(bits, math.Float64bits(w))
		}
		pc.bitbuf = bits
		k, vpos := 0, 0
		for _, e := range sch.Ents {
			data, base, k0, v0, m := e.Am.Data[pc.p], e.Off-e.Am.Base(pc.p), k, vpos, 0
			for _, r := range e.Recv {
				m += r.N
			}
			whole := k+m <= n && vpos+m <= nv && bits.All(k, m)
			for _, r := range e.Recv {
				at := r.Off + base
				if whole {
					vpos += copy(data[at:at+r.N], buf[vpos:])
				} else {
					for i := range r.N {
						if k+i < n && bits.Has(k+i) {
							data[at+i] = buf[vpos]
							vpos++
						}
					}
				}
				k += r.N
			}
			switch {
			case whole:
				e.Am.Deliver(pc.p, section.Section{Dims: e.Ghost}, pc.fr.Scratch)
			case k <= n:
				e.Am.DeliverBits(pc.p, src, section.Section{Dims: e.Ghost}, e.Recv, e.Off, bits, k0, vpos-v0, pc.fr.Scratch)
			}
		}
		if k != n || vpos != nv {
			return fmt.Errorf("native: exchange %d→%d protocol mismatch: %d/%d elements packed, %d/%d expected", src, pc.p, n, nv, k, vpos)
		}
	}
	return nil
}

// gatherUp moves this processor's contribution (already packed into
// pc.minebuf in section order) up the binomial tree. Intermediate
// nodes receive every child subtree's payload first, size the up-edge
// slot to their own elements plus those, and concatenate — own
// elements, then the children's payloads in child order, which is DFS
// pre-order by induction — for the parent; no floating-point operation
// happens on the way up, so the root sees every operand bit-exact. At
// the root, gatherUp carves the child buffers into per-processor streams
// using cnt (the element count each processor contributed, from the
// caller's own section scan) and returns them: they alias the children's
// messages, which are the root's to read until its next receive from
// each child — the next collective. Non-roots return nil.
func (pc *proc) gatherUp(cnt []int) ([][]float64, error) {
	t := pc.eng.prog.Plan.Tree
	if pc.p != 0 {
		need := len(pc.minebuf)
		for i, c := range t.Children[pc.p] {
			b, err := pc.recv(c)
			if err != nil {
				return nil, err
			}
			pc.kids[i], need = b, need+len(b)
		}
		out := pc.getBuf(t.Parent[pc.p], need)
		out = append(out, pc.minebuf...)
		for _, b := range pc.kids {
			out = append(out, b...)
		}
		pc.hops++
		return nil, pc.send(t.Parent[pc.p], out)
	}
	// Root: index per-processor streams into the child buffers. streams[q]
	// aliases a child's message until the root's next receive from it.
	streams := pc.streams
	streams[0] = pc.minebuf
	for _, c := range t.Children[0] {
		b, err := pc.recv(c)
		if err != nil {
			return nil, err
		}
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

// bcastDown broadcasts the root's assembled buffer down the tree: each
// hop forwards a private copy to every child (packed into that pair's
// own slot, so forwarding shares nothing), then returns the received
// buffer for local consumption, the processor's to read until its next
// receive from its parent. The root passes its own assembled slice;
// non-roots pass nil and receive.
func (pc *proc) bcastDown(full []float64) ([]float64, error) {
	t := pc.eng.prog.Plan.Tree
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
			off -= am.Base(o)
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
	for i := range op.Entries {
		sec, ok := op.Entries[i].Concrete(pc.fr)
		if !ok {
			continue
		}
		am := pc.fr.View(op.Entries[i].Lay)
		pc.packOwned(am, sec)
		streams, err := pc.gatherUp(pc.cnt)
		if err != nil {
			return err
		}

		var full []float64
		if pc.p == 0 {
			full = pc.fullbuf[:0]
			pos := pc.pos
			clear(pos)
			am.OwnerRuns(sec, pc.fr.Scratch, func(o, _, n int) {
				full = append(full, streams[o][pos[o]:pos[o]+n]...)
				pos[o] += n
			})
			pc.fullbuf = full
		}
		if full, err = pc.bcastDown(full); err != nil {
			return err
		}

		// The arrays a broadcast or general group delivers into keep their
		// declared extents (plan.Lower), so every local box holds sec.
		k, base := 0, am.Base(pc.p)
		am.OwnerRuns(sec, pc.fr.Scratch, func(o, off, n int) {
			if o != pc.p {
				copy(am.Data[pc.p][off-base:off-base+n], full[k:k+n])
			}
			k += n
		})
		am.Deliver(pc.p, sec, pc.fr.Scratch)
	}
	return nil
}

// gatherSum is the first phase of a distributed SUM: owners stream their
// section elements up the binomial tree as raw operands, and the root
// replays the simulator's global section-order scan — popping each run
// from its owner's stream, so the floating-point accumulation order is
// bit-identical to SumSection — into the SUM's slot of its frame.
func (pc *proc) gatherSum(sc *plan.Sum) error {
	sec := sc.Section(pc.fr)
	if pc.fr.Err != nil {
		return pc.evalErr()
	}
	am := pc.fr.View(sc.Lay)
	pc.packOwned(am, sec)
	streams, err := pc.gatherUp(pc.cnt)
	if err != nil || pc.p != 0 {
		return err
	}
	pos := pc.pos
	clear(pos)
	total := 0.0
	am.OwnerRuns(sec, pc.fr.Scratch, func(o, _, n int) {
		for _, v := range streams[o][pos[o] : pos[o]+n] {
			total += v
		}
		pos[o] += n
	})
	pc.fr.Sums[sc.Slot] = total
	return nil
}

// gatherSums gathers every distributed SUM of a statement or condition,
// in the order lowering fixed. The legs record as pending: the global-sum
// group that gives them a superstep comes later and patches them.
func (pc *proc) gatherSums(sums []plan.Sum) (err error) {
	if len(sums) > 0 {
		pc.evStep, pc.evSite, pc.evSend, pc.evRecv = prof.PendingStep, -1, prof.PhaseSum, prof.PhaseSum
	}
	for i := 0; i < len(sums) && err == nil; i++ {
		err = pc.gatherSum(&sums[i])
	}
	return err
}

// bcastSums is the second phase: the root's totals descend the tree to
// every processor's frame.
func (pc *proc) bcastSums(sums []plan.Sum) (err error) {
	for i := 0; i < len(sums) && err == nil; i++ {
		s := sums[i].Slot
		pc.fr.Sums[s], err = pc.bcastValue(pc.fr.Sums[s])
	}
	return err
}
