// The executor half of the batched engine: each processor runs its
// precomputed instruction stream (schedule.go) against dense per-array
// stores, exchanging each epoch's traffic as one vectored machine.Send
// per processor pair. All per-instance map and slice state of the old
// engine is pooled here: the stream is allocated once by the inspector
// and the executor reuses its scratch buffers across instances.

package exec

import (
	"fmt"
	"math"
	"sort"

	"dmcc/internal/dist"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// valExec is one processor's value-pass state. proc is a machine.Port,
// so the same executor body runs on the goroutine runtime and the
// discrete-event runtime. All per-peer state is sparse (maps keyed by
// live peers) and the dense per-array stores materialize on first
// touch: at N=4096 a processor typically owns a handful of elements
// and talks to a handful of neighbours, and pre-sizing any of this by
// nprocs would make the executor itself the memory bottleneck the
// event runtime exists to remove.
type valExec struct {
	s       *progSchedule
	proc    machine.Port
	me      int
	scalars map[string]float64
	// store/has are the per-array local stores, nil until the processor
	// first writes or receives an element of that array; has marks
	// elements this processor actually wrote or received, for the
	// first-owner result assembly.
	store [][]float64
	has   [][]bool
	// partials holds running partial sums of reduce statements.
	partials map[elemID]float64
	// bufs holds the current epoch's vectored buffer per live source,
	// with a consumption cursor.
	bufs map[int]*vbuf
	// cbuf holds collectively-redistributed operand values keyed by
	// element: filled by opRedist rounds, forwarded by tree relays, and
	// read by eval's non-direct slots in collective mode. An element's
	// origin is always its first owner, so the element alone is the key.
	// Entries are overwritten in place — every epoch re-ships what its
	// slots read, so a stale value is never visible.
	cbuf map[elemID]machine.Word
	// current eval context for load.
	curSlots  []slot
	curVals   []float64
	curReduce bool
	curAcc    elemID
	// gather is the vectored-send scratch (machine.Send copies).
	gather []machine.Word
	// Vectored-reduction scratch: per-destination build buffers,
	// per-source receive buffers with cursors and expected counts, and
	// the ring hop vector.
	rsend map[int][]machine.Word
	rrecv map[int]*vbuf
	rneed map[int]int
	rvec  []machine.Word
	// keys is the sorted-peer iteration scratch of flushSends and
	// drainRecvs (map order is random; the wire order must not be).
	keys []int
}

type vbuf struct {
	data []machine.Word
	pos  int
}

func newValExec(s *progSchedule, proc machine.Port, scalars map[string]float64) *valExec {
	x := &valExec{
		s: s, proc: proc, me: proc.Rank(), scalars: scalars,
		store:    make([][]float64, len(s.arrays)),
		has:      make([][]bool, len(s.arrays)),
		partials: make(map[elemID]float64),
		bufs:     make(map[int]*vbuf),
		cbuf:     make(map[elemID]machine.Word),
		curVals:  make([]float64, 0, 8),
		rsend:    make(map[int][]machine.Word),
		rrecv:    make(map[int]*vbuf),
		rneed:    make(map[int]int),
	}
	return x
}

// ensure materializes array a's dense store on first touch.
func (x *valExec) ensure(a int) {
	if x.store[a] == nil {
		x.store[a] = make([]float64, x.s.arrays[a].size)
		x.has[a] = make([]bool, x.s.arrays[a].size)
	}
}

// buf returns the (created-on-demand) epoch buffer for source src.
func (x *valExec) buf(src int) *vbuf {
	b := x.bufs[src]
	if b == nil {
		b = &vbuf{}
		x.bufs[src] = b
	}
	return b
}

// rbuf returns the (created-on-demand) reduction receive buffer for src.
func (x *valExec) rbuf(src int) *vbuf {
	b := x.rrecv[src]
	if b == nil {
		b = &vbuf{}
		x.rrecv[src] = b
	}
	return b
}

// inputLoads is the pre-decoded initial state, bucketed by owner
// coordinates: one shared structure per run, read by every processor.
// The old per-processor loadInput re-parsed every input key and asked
// IsOwner per (processor, element) — an O(nprocs * elements) scan with
// string parsing inside, which at N=256 already dominated whole-run
// profiles and at N=4096 dwarfs the simulation itself. Here the input
// is decoded once: each element's owner coordinates fold (over the grid
// dimensions the scheme does not replicate along) into an integer
// bucket key, and a processor installs exactly the buckets matching its
// own coordinates.
type inputLoads struct {
	arrays []arrayLoads
}

// arrayLoads buckets one array's initial elements. allDim[d] marks grid
// dimensions the scheme replicates along (owner coordinate All): those
// are skipped by the fold, so every processor along them reads the same
// bucket. The mask is per-scheme constant — All entries come from
// Replicated dims and Fixed[d]=All, never from the subscripts.
type arrayLoads struct {
	allDim []bool
	bucket map[int][]elemVal
}

type elemVal struct {
	elem elemID
	val  float64
}

// buildLoads decodes and buckets the initial array contents. Arrays
// without a scheme are skipped, like the old loadInput.
func buildLoads(s *progSchedule, input ir.Storage) *inputLoads {
	g := s.ss.Grid
	loads := &inputLoads{arrays: make([]arrayLoads, len(s.arrays))}
	for a, am := range s.arrays {
		elems := input[am.name]
		sch, ok := s.ss.Schemes[am.name]
		if !ok || len(elems) == 0 {
			continue
		}
		al := arrayLoads{bucket: make(map[int][]elemVal)}
		for key, v := range elems {
			idx := parseKey(key)
			coords := sch.GridCoords(g, idx...)
			if al.allDim == nil {
				al.allDim = make([]bool, g.Q())
				for d, c := range coords {
					al.allDim[d] = c == dist.All
				}
			}
			k := 0
			for d, c := range coords {
				if al.allDim[d] {
					continue
				}
				k = k*g.Extent(d) + c
			}
			al.bucket[k] = append(al.bucket[k], elemVal{s.elemOf(am.name, idx), v})
		}
		loads.arrays[a] = al
	}
	return loads
}

// installInput installs this processor's slice of the pre-bucketed
// initial state, free of charge (input distribution cost is measured
// separately by package data).
func (x *valExec) installInput(loads *inputLoads) {
	g := x.s.ss.Grid
	for a := range loads.arrays {
		al := &loads.arrays[a]
		if al.bucket == nil {
			continue
		}
		k := 0
		for d := 0; d < g.Q(); d++ {
			if al.allDim[d] {
				continue
			}
			k = k*g.Extent(d) + g.Coord(x.me, d)
		}
		for _, ev := range al.bucket[k] {
			x.storeElem(ev.elem, ev.val)
		}
	}
}

// loadElem reads an element of the local store; never-touched arrays
// read as zero, matching the dense store's (and the old engine map's)
// default.
func (x *valExec) loadElem(e elemID) float64 {
	if s := x.store[e.arr()]; s != nil {
		return s[e.off()]
	}
	return 0
}

func (x *valExec) storeElem(e elemID, v float64) {
	x.ensure(e.arr())
	x.store[e.arr()][e.off()] = v
	x.has[e.arr()][e.off()] = true
}

// load resolves one RHS operand: the redirected reduce accumulator,
// then received remote slots (matched by element, like the old values
// map), then the local dense store (zero for never-written elements,
// matching the old map's default).
func (x *valExec) load(e elemID) float64 {
	if x.curReduce && e == x.curAcc {
		return x.partials[e]
	}
	for i := range x.curSlots {
		if x.curSlots[i].elem == e {
			return x.curVals[i]
		}
	}
	return x.loadElem(e)
}

// runNest executes this processor's instruction stream for one nest.
func (x *valExec) runNest(ns *nestSchedule) {
	stream := ns.procs[x.me]
	for i := range stream {
		in := &stream[i]
		switch in.op {
		case opFlush:
			f := ns.flushes[in.aux]
			for _, snd := range f.sends {
				x.gather = x.gather[:0]
				for _, e := range snd.elems {
					x.gather = append(x.gather, x.loadElem(e))
				}
				x.proc.Send(int(snd.dst), x.gather)
			}
			for _, rcv := range f.recvs {
				b := x.buf(int(rcv.src))
				if b.pos != len(b.data) {
					panic(fmt.Sprintf("exec: vectored buffer from %d not drained (%d of %d words)", rcv.src, b.pos, len(b.data)))
				}
				data := x.proc.Recv(int(rcv.src))
				if len(data) != rcv.n {
					panic(fmt.Sprintf("exec: vectored exchange from %d expected %d words, got %d", rcv.src, rcv.n, len(data)))
				}
				b.data, b.pos = data, 0
			}
		case opRedist:
			x.runRedist(ns.redists[in.aux])
		case opSendDirect:
			x.proc.SendValue(int(in.dst), x.loadElem(in.elem))
		case opFin:
			x.finalize(ns.fins[in.aux])
		case opRed:
			x.reduceBatch(ns.reds[in.aux])
		case opEval:
			x.eval(ns, in)
		case opNop:
		}
	}
}

// runRedist executes one epoch's collective redistribution. Each round
// sends its merged messages in ascending destination order, then
// receives in ascending source order — one message per ordered pair
// per round, the same shape that keeps the point-to-point flush
// deadlock-free at ChanCap=1. A segment whose origin is this processor
// gathers from the local store; a relayed segment forwards the words
// buffered (under the origin's rank) in an earlier round.
func (x *valExec) runRedist(op *redistOp) {
	for r := range op.rounds {
		rd := &op.rounds[r]
		for i := range rd.sends {
			msg := &rd.sends[i]
			x.gather = x.gather[:0]
			for _, seg := range msg.segs {
				if int(seg.origin) == x.me {
					for _, e := range seg.elems {
						x.gather = append(x.gather, x.loadElem(e))
					}
				} else {
					for _, e := range seg.elems {
						w, ok := x.cbuf[e]
						if !ok {
							panic(fmt.Sprintf("exec: collective relay at %d missing element %d of origin %d", x.me, e, seg.origin))
						}
						x.gather = append(x.gather, w)
					}
				}
			}
			x.proc.Send(int(msg.peer), x.gather)
		}
		for i := range rd.recvs {
			msg := &rd.recvs[i]
			data := x.proc.Recv(int(msg.peer))
			pos := 0
			for _, seg := range msg.segs {
				for _, e := range seg.elems {
					if pos >= len(data) {
						panic(fmt.Sprintf("exec: collective round from %d short by %d words", msg.peer, pos-len(data)+1))
					}
					x.cbuf[e] = data[pos]
					pos++
				}
			}
			if pos != len(data) {
				panic(fmt.Sprintf("exec: collective round from %d expected %d words, got %d", msg.peer, pos, len(data)))
			}
		}
	}
}

// eval receives the instance's remote operands (buffer pops and direct
// one-word messages, in the shared global order) and, unless this
// processor is a receive-only replica of a reduction, evaluates the
// statement.
func (x *valExec) eval(ns *nestSchedule, in *pinstr) {
	slots := ns.slots[in.slot : in.slot+in.nslot]
	x.curVals = x.curVals[:0]
	for _, sl := range slots {
		var v float64
		switch {
		case sl.direct:
			v = x.proc.RecvValue(int(sl.src))
		case x.s.collective:
			w, ok := x.cbuf[sl.elem]
			if !ok {
				panic(fmt.Sprintf("exec: collective buffer at %d missing element %d of origin %d", x.me, sl.elem, sl.src))
			}
			v = w
		default:
			b := x.buf(int(sl.src))
			if b.pos >= len(b.data) {
				panic(fmt.Sprintf("exec: vectored buffer from %d underflow", sl.src))
			}
			v = b.data[b.pos]
			b.pos++
		}
		x.curVals = append(x.curVals, v)
	}
	if in.role == roleRecvOnly {
		return
	}
	cs := &ns.stmts[in.stmt]
	stmt := cs.stmt
	x.curSlots = slots
	x.curReduce = in.role == roleReduce
	x.curAcc = in.elem
	v := x.evalExpr(cs.rhs, ns.envs[in.env:in.env+int32(stmt.Depth)])
	if in.role == roleReduce {
		x.partials[in.elem] = v
	} else {
		if math.IsNaN(v) {
			panic(fmt.Sprintf("exec: NaN at %s line %d", stmt.LHS, stmt.Line))
		}
		x.storeElem(in.elem, v)
	}
	x.proc.Compute(stmt.Flops)
}

// evalExpr evaluates a compiled RHS against the instance's loop
// binding, in ir.Expr.Eval's order (left operand, then right, then the
// operator), with every array operand resolved by load.
func (x *valExec) evalExpr(e *cexpr, env []int32) float64 {
	switch e.kind {
	case xNum:
		return e.num
	case xScalar:
		v, ok := x.scalars[e.scalar]
		if !ok {
			panic(fmt.Sprintf("ir: unbound scalar %q", e.scalar))
		}
		return v
	case xRef:
		return x.load(x.s.elemAt(&e.ref, env))
	case xNeg:
		return -x.evalExpr(e.l, env)
	}
	l := x.evalExpr(e.l, env)
	r := x.evalExpr(e.r, env)
	switch e.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '/':
		return l / r
	}
	panic(fmt.Sprintf("ir: unknown operator %q", e.op))
}

// finalize mirrors engine.finalize on the batched transport: the
// contributors' partials fold into the root owner's stored value in
// contributor order, and the total fans out to the remaining owners.
func (x *valExec) finalize(f *finOp) {
	if x.me == f.root {
		total := x.loadElem(f.elem)
		for _, c := range f.contribs {
			var part float64
			if c == f.root {
				part = x.partials[f.elem]
			} else {
				part = x.proc.RecvValue(c)
			}
			total += part
			x.proc.Compute(1)
		}
		x.storeElem(f.elem, total)
		for _, o := range f.owners {
			if o != f.root {
				x.proc.SendValue(o, total)
			}
		}
	} else {
		if contains(f.contribs, x.me) {
			x.proc.SendValue(f.root, x.partials[f.elem])
		}
		if contains(f.owners, x.me) {
			x.storeElem(f.elem, x.proc.RecvValue(f.root))
		}
	}
	delete(x.partials, f.elem)
}

// flushSends transmits every non-empty per-destination build buffer in
// ascending destination order and returns the words sent.
func (x *valExec) flushSends() int {
	sent := 0
	x.keys = x.keys[:0]
	for dst, b := range x.rsend {
		if len(b) > 0 {
			x.keys = append(x.keys, dst)
		}
	}
	sort.Ints(x.keys)
	for _, dst := range x.keys {
		b := x.rsend[dst]
		x.proc.Send(dst, b)
		sent += len(b)
		x.rsend[dst] = b[:0]
	}
	return sent
}

// drainRecvs receives one vectored message per source with a nonzero
// expected count, in ascending source order, resetting the counts.
func (x *valExec) drainRecvs(what string) {
	x.keys = x.keys[:0]
	for src, need := range x.rneed {
		if need > 0 {
			x.keys = append(x.keys, src)
		}
	}
	sort.Ints(x.keys)
	for _, src := range x.keys {
		b := x.rbuf(src)
		if b.pos != len(b.data) {
			panic(fmt.Sprintf("exec: %s buffer from %d not drained (%d of %d words)", what, src, b.pos, len(b.data)))
		}
		data := x.proc.Recv(src)
		if len(data) != x.rneed[src] {
			panic(fmt.Sprintf("exec: %s exchange from %d expected %d words, got %d", what, src, x.rneed[src], len(data)))
		}
		b.data, b.pos = data, 0
		x.rneed[src] = 0
	}
}

func (x *valExec) popRecv(src int) machine.Word {
	b := x.rrecv[src]
	v := b.data[b.pos]
	b.pos++
	return v
}

// reduceBatch runs one vectored reduction exchange (opRed): the
// two-phase gather + fan-out lowering, or the Section 5 ring when the
// inspector marked the batch ring-eligible. Both fold each element
// exactly like finalize — stored value first, then contributors in
// ascending order — so values stay bit-identical to the oracle.
func (x *valExec) reduceBatch(r *redOp) {
	if r.ring {
		x.reduceRing(r)
		return
	}

	// Gather phase: one vectored partials message per (contributor,
	// root) pair, items in batch order on both ends so cursors align.
	start := x.proc.Clock()
	for _, f := range r.items {
		if x.me != f.root && contains(f.contribs, x.me) {
			x.rsend[f.root] = append(x.rsend[f.root], x.partials[f.elem])
		}
	}
	sent := x.flushSends()
	for _, f := range r.items {
		if x.me == f.root {
			for _, c := range f.contribs {
				if c != x.me {
					x.rneed[c]++
				}
			}
		}
	}
	x.drainRecvs("gather")
	for _, f := range r.items {
		if x.me == f.root {
			total := x.loadElem(f.elem)
			for _, c := range f.contribs {
				var part machine.Word
				if c == f.root {
					part = x.partials[f.elem]
				} else {
					part = x.popRecv(c)
				}
				total += part
				x.proc.Compute(1)
			}
			x.storeElem(f.elem, total)
		}
		delete(x.partials, f.elem)
	}
	x.proc.Note(machine.EvGather, start, x.proc.Clock(), -1, sent)

	// Fan-out phase: one vectored totals message per (root, live
	// reader) pair. Owners outside the fan-out were proven by the
	// liveness scan not to read the total before its next write.
	start = x.proc.Clock()
	for _, f := range r.items {
		if x.me == f.root {
			for _, o := range f.fanout {
				x.rsend[o] = append(x.rsend[o], x.loadElem(f.elem))
			}
		}
	}
	sent = x.flushSends()
	for _, f := range r.items {
		if x.me != f.root && contains(f.fanout, x.me) {
			x.rneed[f.root]++
		}
	}
	x.drainRecvs("fanout")
	for _, f := range r.items {
		if x.me != f.root && contains(f.fanout, x.me) {
			x.storeElem(f.elem, x.popRecv(f.root))
		}
	}
	x.proc.Note(machine.EvFanout, start, x.proc.Clock(), -1, sent)
}

// reduceRing runs a ring-lowered batch (Section 5): the running totals
// travel the shared contributor chain neighbor-to-neighbor — each hop
// folds its partials into the vector — and the last contributor
// delivers the totals to the root (which always stores) and the live
// readers. The root receives one message instead of len(contribs)-1,
// de-serializing the reduction hot-spot the paper's pipelined SOR
// removes.
func (x *valExec) reduceRing(r *redOp) {
	start := x.proc.Clock()
	sent := 0
	order := r.items[0].contribs
	k := len(order)
	last := order[k-1]
	switch pos := indexOf(order, x.me); {
	case pos == 0: // root: fold stored values + own partials, start the ring
		x.rvec = x.rvec[:0]
		for _, f := range r.items {
			x.rvec = append(x.rvec, x.loadElem(f.elem)+x.partials[f.elem])
			x.proc.Compute(1)
		}
		x.proc.Send(order[1], x.rvec)
		sent += len(x.rvec)
		data := x.proc.Recv(last)
		if len(data) != len(r.items) {
			panic(fmt.Sprintf("exec: ring totals expected %d words, got %d", len(r.items), len(data)))
		}
		for i, f := range r.items {
			x.storeElem(f.elem, data[i])
		}
	case pos > 0 && pos < k-1: // interior hop: fold and forward
		data := x.proc.Recv(order[pos-1])
		x.rvec = x.rvec[:0]
		for i, f := range r.items {
			x.rvec = append(x.rvec, data[i]+x.partials[f.elem])
			x.proc.Compute(1)
		}
		x.proc.Send(order[pos+1], x.rvec)
		sent += len(x.rvec)
		x.ringStoreTotals(r, last)
	case pos == k-1: // last hop: fold, then deliver the totals
		data := x.proc.Recv(order[k-2])
		x.rvec = x.rvec[:0]
		for i, f := range r.items {
			total := data[i] + x.partials[f.elem]
			x.proc.Compute(1)
			x.rvec = append(x.rvec, total)
			if contains(f.owners, x.me) {
				x.storeElem(f.elem, total)
			}
		}
		// The root always gets the full vector; live readers get their
		// items. Root = min(owners) < every fan-out rank, so sending it
		// first keeps the destinations ascending.
		x.proc.Send(r.items[0].root, x.rvec)
		sent += len(x.rvec)
		for i, f := range r.items {
			for _, o := range f.fanout {
				if o != x.me {
					x.rsend[o] = append(x.rsend[o], x.rvec[i])
				}
			}
		}
		sent += x.flushSends()
	default: // pure reader
		x.ringStoreTotals(r, last)
	}
	for _, f := range r.items {
		delete(x.partials, f.elem)
	}
	x.proc.Note(machine.EvRing, start, x.proc.Clock(), -1, sent)
}

// ringStoreTotals receives the delivery vector from the ring's last
// contributor and stores the items this processor is a live reader of.
func (x *valExec) ringStoreTotals(r *redOp, last int) {
	for _, f := range r.items {
		if x.me != last && contains(f.fanout, x.me) {
			x.rneed[last]++
		}
	}
	if x.rneed[last] == 0 {
		return
	}
	x.drainRecvs("ring")
	for _, f := range r.items {
		if x.me != last && contains(f.fanout, x.me) {
			x.storeElem(f.elem, x.popRecv(last))
		}
	}
}
