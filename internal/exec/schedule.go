// The inspector half of the batched execution engine.
//
// buildSchedule walks each nest's iteration space exactly once per
// (nest, env-binding) — not once per processor per iteration like the
// per-element engine — and precomputes, for every ordered processor
// pair, the element list crossing the wire. The walk is cut into
// epochs: within an epoch no shipped element is written, so all of an
// epoch's pair traffic can be hoisted to the epoch boundary and sent as
// one vectored machine.Send per pair (the inspector/executor move of
// Li & Chen's communication-set generation; message vectorization in
// the Gupta & Banerjee lineage). Two artifacts come out of the walk:
//
//   - per-processor instruction streams (flush / direct-send /
//     finalize / eval) that the value executor (executor.go) runs with
//     batched communication, deadlock-free at ChanCap=1: every epoch
//     exchanges at most one vectored message per ordered pair, every
//     processor sends its vectors before receiving any, and all
//     per-element residual traffic follows one global order shared by
//     all processors;
//
//   - a timeline of the per-element engine's communication and
//     computation events, in its exact global lockstep order. The
//     naive cost model is value-independent — simulated clocks depend
//     only on the event schedule, never on the data — so replayStats
//     re-derives the per-element engine's Stats (clocks, messages,
//     words, flops, trace events) bit for bit without moving a single
//     per-element message.
//
// The hot path works on elemID integers (array id + row-major offset);
// the "arr!i,j" strings survive only at the ir.Storage boundary and in
// the nest-end finalize ordering, which sorts by the legacy string key
// to stay byte-identical with RunExact. Nothing on it interprets the IR
// either: every loop bound, subscript and right-hand side of a nest is
// compiled once (compileNest) into integer forms over loop levels, so
// the walk and the value pass evaluate against []int32 environments
// instead of looking names up in map[string]int bindings.

package exec

import (
	"fmt"
	"sort"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// elemID packs (array id, 0-based row-major element offset) into one
// integer — the hot-path replacement for pkey strings.
type elemID int64

const elemOffBits = 40

func mkElem(a, off int) elemID { return elemID(int64(a)<<elemOffBits | int64(off)) }
func (e elemID) arr() int      { return int(int64(e) >> elemOffBits) }
func (e elemID) off() int      { return int(int64(e) & (1<<elemOffBits - 1)) }

// arrayMeta is one array's dense layout: extents evaluated under the
// binding, row-major, subscripts 1-based.
type arrayMeta struct {
	name string
	ext  []int
	size int
}

// cterm is one loop term of a compiled affine form: k times the index
// of loop level lvl (0 = outermost).
type cterm struct {
	lvl int
	k   int
}

// cform is an affine expression compiled against one position of a
// nest: c + Σ k·env[lvl], with the parameter binding folded into c. A
// variable binds to the innermost enclosing loop of that name, else to
// a parameter — the map environment's resolution. A variable that is
// neither sets unbound, and evaluating the form panics with
// ir.Affine.Eval's text; compiling never panics, so a position that is
// never reached behaves as it did under the map environment.
type cform struct {
	c       int
	terms   []cterm
	unbound string
	src     ir.Affine
}

// compileAffine compiles a under the enclosing loop indices scope
// (outermost first) and the parameter binding bind.
func compileAffine(a ir.Affine, scope []string, bind map[string]int) cform {
	f := cform{c: a.Const, src: a}
	for _, v := range a.Vars() {
		k := a.Coeff[v]
		lvl := -1
		for l := len(scope) - 1; l >= 0; l-- {
			if scope[l] == v {
				lvl = l
				break
			}
		}
		if lvl >= 0 {
			f.terms = append(f.terms, cterm{lvl: lvl, k: k})
		} else if val, ok := bind[v]; ok {
			f.c += k * val
		} else if f.unbound == "" {
			f.unbound = v
		}
	}
	return f
}

func (f *cform) eval(env []int32) int {
	if f.unbound != "" {
		panic(fmt.Sprintf("ir: unbound variable %q in %s", f.unbound, f.src))
	}
	v := f.c
	for _, t := range f.terms {
		v += t.k * int(env[t.lvl])
	}
	return v
}

// cref is an array reference compiled against one statement: the array
// id is resolved once, the subscripts are cforms. fast is false for an
// undeclared array or a subscript count other than the rank; such a
// reference takes elemOf's checking path at evaluation time.
type cref struct {
	arr  int
	fast bool
	name string
	subs []cform
}

func (s *progSchedule) compileRef(r ir.Ref, scope []string) cref {
	c := cref{name: r.Array, subs: make([]cform, len(r.Subs))}
	if a, ok := s.aid[r.Array]; ok {
		c.arr = a
		c.fast = len(r.Subs) == len(s.arrays[a].ext)
	}
	for d, su := range r.Subs {
		c.subs[d] = compileAffine(su, scope, s.bind)
	}
	return c
}

// elemAt evaluates a compiled reference to its element id. Off the fast
// path — an undeclared array, a rank mismatch or a subscript outside
// the extents — it evaluates every subscript and defers to elemOf, so
// the panics and their order are elemOf's.
func (s *progSchedule) elemAt(r *cref, env []int32) elemID {
	if r.fast {
		ext := s.arrays[r.arr].ext
		off := 0
		for d := range r.subs {
			v := r.subs[d].eval(env)
			if v < 1 || v > ext[d] {
				break
			}
			off = off*ext[d] + (v - 1)
			if d == len(r.subs)-1 {
				return mkElem(r.arr, off)
			}
		}
	}
	idx := make([]int, len(r.subs))
	for d := range r.subs {
		idx[d] = r.subs[d].eval(env)
	}
	return s.elemOf(r.name, idx)
}

// cexpr is a statement's right-hand side compiled over cforms: the
// ir.Expr tree with every RefE resolved to a cref.
type cexpr struct {
	kind   uint8
	op     byte // xBin: the ir.BinOp operator
	num    float64
	scalar string
	ref    cref
	l, r   *cexpr
}

const (
	xNum uint8 = iota
	xScalar
	xRef
	xNeg
	xBin
)

// compileExpr compiles an RHS tree. A nil RHS assigns 0, as in
// ir.EvalProgram.
func (s *progSchedule) compileExpr(e ir.Expr, scope []string) *cexpr {
	switch v := e.(type) {
	case nil:
		return &cexpr{kind: xNum}
	case ir.Num:
		return &cexpr{kind: xNum, num: float64(v)}
	case ir.Scalar:
		return &cexpr{kind: xScalar, scalar: string(v)}
	case ir.RefE:
		return &cexpr{kind: xRef, ref: s.compileRef(v.Ref, scope)}
	case ir.NegE:
		return &cexpr{kind: xNeg, l: s.compileExpr(v.E, scope)}
	case ir.BinOp:
		return &cexpr{kind: xBin, op: v.Op, l: s.compileExpr(v.L, scope), r: s.compileExpr(v.R, scope)}
	}
	panic(fmt.Sprintf("exec: unsupported expression %T", e))
}

// cstmt is one statement compiled against its enclosing loops.
type cstmt struct {
	stmt  *ir.Stmt
	lhs   cref
	reads []cref
	rhs   *cexpr
}

// compileNest compiles a nest's loop bounds (each against the loops
// enclosing it) and statements (against their Depth enclosing loops),
// and sorts the statements by the level they run at: pre[l] before the
// level-l loop, post[l] after it (ir.Nest.IsPost, decided once here
// instead of per level visit).
func (s *progSchedule) compileNest(ns *nestSchedule) {
	nest := ns.nest
	idx := nest.LoopIndices()
	nl := len(nest.Loops)
	ns.lo, ns.hi = make([]cform, nl), make([]cform, nl)
	for l, lp := range nest.Loops {
		ns.lo[l] = compileAffine(lp.Lo, idx[:l], s.bind)
		ns.hi[l] = compileAffine(lp.Hi, idx[:l], s.bind)
	}
	ns.pre, ns.post = make([][]int, nl+1), make([][]int, nl+1)
	ns.stmts = make([]cstmt, len(nest.Stmts))
	for si, st := range nest.Stmts {
		scope := idx[:st.Depth]
		cs := cstmt{stmt: st, lhs: s.compileRef(st.LHS, scope), reads: make([]cref, len(st.Reads)),
			rhs: s.compileExpr(st.RHS, scope)}
		for ri, rd := range st.Reads {
			cs.reads[ri] = s.compileRef(rd, scope)
		}
		ns.stmts[si] = cs
		if nest.IsPost(st) {
			ns.post[st.Depth] = append(ns.post[st.Depth], si)
		} else {
			ns.pre[st.Depth] = append(ns.pre[st.Depth], si)
		}
	}
}

// progSchedule is the complete precomputed schedule of one Run call.
type progSchedule struct {
	p      *ir.Program
	ss     *core.SchemeSet
	bind   map[string]int
	nprocs int
	arrays []arrayMeta
	aid    map[string]int
	// owners memoizes dist.Scheme.Owners per element in a dense table
	// per array (nil until the array is first asked): the per-element
	// engine recomputed it for every (instance, read, executor) visit.
	owners [][][]int
	// Per-element write state in dense tables per array: wstamp holds
	// the epoch of the element's last write (compared against epoch, so
	// an epoch cut resets the written set in O(1)); wgen counts its
	// writes, which invalidates the collective dedup's buffered copies.
	wstamp [][]uint32
	wgen   [][]uint32
	// epoch numbers the epochs of the whole schedule from 1.
	epoch uint32
	nests []*nestSchedule
	// pipeline enables the vectored two-phase / ring finalize lowering;
	// when false every finalize stays a per-element star (the PR 3
	// transport), which is what the -pipeline=false knob compares
	// against.
	pipeline bool
	// collective enables the composed collective lowering of operand
	// ships (RedistCollective): per-pair duplicates dedup at insertion,
	// shared-destination-set traffic travels binomial multicast trees,
	// and eval slots resolve against origin-keyed buffers instead of
	// positional pair cursors.
	collective bool
	// Liveness state for fan-out pruning (pipeline mode): redArrs marks
	// arrays that appear as a reduction LHS; acc records, per element of
	// those arrays, the program-order sequence of local-read and write
	// events; sites lists every finalize with its position in that
	// sequence. computeFanouts scans forward (cyclically, because the
	// program body repeats each outer iteration) from each site to the
	// element's next write and keeps only the owners that actually read
	// the total in between.
	redArrs   map[int]bool
	seq       int
	acc       map[elemID][]accEvent
	readerBuf []int
	sites     []finSite
}

// accEvent is one liveness event of a reduction-accumulator element:
// either a write (finalize or plain overwrite) or a local read by the
// listed ranks.
type accEvent struct {
	seq   int
	write bool
	// readers are readerBuf[rd : rd+nrd].
	rd, nrd int
}

// finSite is one finalize's position in the liveness sequence.
type finSite struct {
	e   elemID
	seq int
	f   *finOp
}

func (s *progSchedule) noteRead(e elemID, readers []int) {
	s.seq++
	s.acc[e] = append(s.acc[e], accEvent{seq: s.seq, rd: len(s.readerBuf), nrd: len(readers)})
	s.readerBuf = append(s.readerBuf, readers...)
}

func (s *progSchedule) noteWrite(e elemID) {
	s.seq++
	s.acc[e] = append(s.acc[e], accEvent{seq: s.seq, write: true})
}

func (s *progSchedule) noteFinalize(e elemID, f *finOp) {
	s.seq++
	s.acc[e] = append(s.acc[e], accEvent{seq: s.seq, write: true})
	s.sites = append(s.sites, finSite{e: e, seq: s.seq, f: f})
}

// computeFanouts prunes every finalize's fan-out to the owners that are
// live readers of the total: ranks that locally read the element after
// this finalize and before its next write. The scan is cyclic — the
// program body repeats each outer iteration, so events before the site
// replay after it — and therefore conservative for the final iteration.
// The root is never in the fan-out: it always folds and stores the
// total, which keeps the ship source (owners[0]) and the first-owner
// result assembly correct even when every other owner is pruned.
func (s *progSchedule) computeFanouts() {
	live := map[int]bool{}
	for _, site := range s.sites {
		f := site.f
		events := s.acc[site.e]
		start := sort.Search(len(events), func(k int) bool { return events[k].seq > site.seq })
		for k := range live {
			delete(live, k)
		}
		n := len(events)
		for k := 0; k < n; k++ {
			ev := &events[(start+k)%n]
			if ev.write {
				break
			}
			for _, r := range s.readerBuf[ev.rd : ev.rd+ev.nrd] {
				live[r] = true
			}
		}
		for _, o := range f.owners {
			if o != f.root && live[o] {
				f.fanout = append(f.fanout, o)
			}
		}
	}
}

// nestSchedule is one nest's schedule, built once and replayed for
// every outer iteration (the binding, and hence the walk, is identical
// across iterations).
type nestSchedule struct {
	nest *ir.Nest
	// The compiled nest (compileNest): loop bounds per level, statements,
	// and statement indices by the level they run at.
	lo, hi    []cform
	stmts     []cstmt
	pre, post [][]int
	// Tables the pointer-free instructions index into.
	envs    []int32
	slots   []slot
	flushes []*flushOp
	fins    []*finOp
	reds    []*redOp
	redists []*redistOp
	// timeline is the per-element engine's global event order.
	timeline []top
	// procs[r] is processor r's value-pass instruction stream.
	procs [][]pinstr
}

// top is one timeline event of the naive model: a one-word transfer or
// a local computation.
type top struct {
	kind uint8
	a, b int32 // xfer: src, dst; compute: proc, flops
}

const (
	tXfer uint8 = iota
	tCompute
)

// pinstr is one value-pass instruction of one processor.
// It holds no pointers: its lists live in the nest's tables (the loop
// binding in envs, the operand slots in slots, the exchange in the
// table its op names), which keeps the streams out of the GC's scan.
type pinstr struct {
	op   uint8
	role uint8
	stmt int32 // opEval: statement index
	dst  int32 // opSendDirect: receiver rank
	aux  int32 // opFlush/opFin/opRed/opRedist: index in the op's table
	// opEval: the Depth loop values at envs[env:], and the nslot
	// operand slots at slots[slot:].
	env, slot, nslot int32
	elem             elemID
}

const (
	// opNop is an epoch-head placeholder that no exchange claimed.
	opNop uint8 = iota
	// opFlush exchanges the epoch's vectored messages (sends first,
	// then receives).
	opFlush
	// opSendDirect ships one element that was finalized earlier in the
	// same epoch, so its value postdates the epoch-boundary gather.
	opSendDirect
	// opFin combines a pending reduction (finalize).
	opFin
	// opEval receives this processor's remote operands and, unless the
	// role is roleRecvOnly, evaluates the statement instance.
	opEval
	// opRed runs a vectored reduction exchange (two-phase or ring) for a
	// batch of finalizes; pipeline mode's replacement for opFin.
	opRed
	// opRedist runs one epoch's collective redistribution rounds;
	// collective mode's replacement for opFlush.
	opRedist
)

const (
	roleWrite uint8 = iota
	roleReduce
	roleRecvOnly
)

// slot is one remote operand of an eval: either the next word of the
// vectored buffer from src, or (direct) a dedicated one-word message.
type slot struct {
	elem   elemID
	src    int32
	direct bool
}

type flushOp struct {
	sends []flushSend
	recvs []flushRecv
}

type flushSend struct {
	dst   int32
	elems []elemID
}

type flushRecv struct {
	src int32
	n   int
}

// redistOp is one processor's materialized schedule for an epoch's
// collective redistribution. Each round exchanges at most one merged
// vectored message per ordered processor pair, and every processor
// sends its round messages before receiving any — the same shape that
// makes the point-to-point flush deadlock-free at ChanCap=1. Binomial
// multicast-tree rounds come first (round r moves tree edges of stride
// 2^r, so a relay always receives a step's payload in an earlier round
// than it forwards it), and the residual single-destination traffic is
// the final round, one vectored message per pair like the flush.
type redistOp struct {
	rounds []redistRound
}

type redistRound struct {
	sends []redistMsg // ascending peer (destination) order
	recvs []redistMsg // ascending peer (source) order
}

// redistMsg is one merged round message: the segments of every tree
// step (and residual pair list) crossing this ordered pair this round,
// concatenated in step order. Both endpoints hold the same segment
// list, so the wire layout needs no header.
type redistMsg struct {
	peer int32
	segs []redistSeg
}

// redistSeg is one origin's element run inside a merged message. The
// sender gathers it from its local store when it is the origin, or
// forwards the words it received (and buffered by origin) in an
// earlier round; the receiver files the words under the origin's rank
// for eval's slot lookups.
type redistSeg struct {
	origin int32
	elems  []elemID
}

type finOp struct {
	elem     elemID
	contribs []int
	owners   []int
	root     int
	// fanout is the liveness-pruned total-delivery set (pipeline mode):
	// owners other than the root that locally read the total before the
	// element's next write, ascending. Filled by computeFanouts after
	// the walk; the legacy per-element star (pipeline off) ignores it
	// and delivers to all owners.
	fanout []int
}

// redOp is one vectored reduction exchange covering a batch of
// finalizes: all reductions forced by one statement instance
// (mid-epoch, ordered) or all reductions still pending at nest end
// (hoistable). Two lowerings share the type:
//
//   - two-phase: a gather phase (one vectored partials message per
//     (contributor, root) pair, items in batch order) and a fan-out
//     phase (one vectored totals message per (root, live reader) pair);
//
//   - ring (Section 5), when ring is true: the running totals travel
//     the contributor chain neighbor-to-neighbor — each hop adds its
//     partials and forwards the vector — and the last contributor
//     delivers the totals to the root and the live readers. This
//     de-serializes the root hot-spot: the root receives one message
//     instead of len(contribs)-1.
//
// Both phases and the ring keep the oracle's left-associative fold
// order (stored value, then contributors ascending), so values stay
// bit-identical to RunExact.
type redOp struct {
	items []*finOp
	ring  bool
}

// ringEligible reports whether a mid-epoch batch can be ring-lowered:
// every item must share one contributor chain of length >= 3 that
// starts at the shared root (so the chain's first hop has the stored
// value to fold first and the fold order matches the star's).
func ringEligible(items []*finOp) bool {
	f0 := items[0]
	if len(f0.contribs) < 3 || f0.contribs[0] != f0.root {
		return false
	}
	for _, f := range items[1:] {
		if f.root != f0.root || len(f.contribs) != len(f0.contribs) {
			return false
		}
		for i, c := range f.contribs {
			if c != f0.contribs[i] {
				return false
			}
		}
	}
	return true
}

// buildSchedule runs the inspector over the whole program. pipeline
// selects the vectored two-phase / ring finalize lowering; off, every
// finalize stays a per-element star. collective selects the composed
// collective lowering of the epoch operand exchanges; off, each epoch
// is one point-to-point vectored message per pair, duplicates and all.
func buildSchedule(p *ir.Program, ss *core.SchemeSet, bind map[string]int, pipeline, collective bool) *progSchedule {
	s := &progSchedule{
		p: p, ss: ss, bind: bind,
		nprocs:     ss.Grid.Size(),
		aid:        make(map[string]int, len(p.Arrays)),
		pipeline:   pipeline,
		collective: collective,
		redArrs:    make(map[int]bool),
		acc:        make(map[elemID][]accEvent),
	}
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := p.Arrays[name]
		am := arrayMeta{name: name, ext: make([]int, arr.Rank()), size: 1}
		for d, e := range arr.Extents {
			am.ext[d] = e.Eval(bind)
			am.size *= am.ext[d]
		}
		s.aid[name] = len(s.arrays)
		s.arrays = append(s.arrays, am)
	}
	s.owners = make([][][]int, len(s.arrays))
	s.wstamp = make([][]uint32, len(s.arrays))
	s.wgen = make([][]uint32, len(s.arrays))
	for _, nest := range p.Nests {
		for _, st := range nest.Stmts {
			if st.Reduce {
				s.redArrs[s.aid[st.LHS.Array]] = true
			}
		}
	}
	s.nests = make([]*nestSchedule, len(p.Nests))
	for i, nest := range p.Nests {
		s.nests[i] = s.buildNest(nest)
	}
	if pipeline {
		s.computeFanouts()
	}
	return s
}

// elemOf maps a subscripted reference to its element id, with the
// 1-based subscripts checked against the declared extents (the dense
// stores cannot absorb out-of-range elements the way the old string
// maps silently did).
func (s *progSchedule) elemOf(name string, idx []int) elemID {
	a, ok := s.aid[name]
	if !ok {
		panic(fmt.Sprintf("exec: reference to undeclared array %s", name))
	}
	am := &s.arrays[a]
	off := 0
	for d, v := range idx {
		if v < 1 || v > am.ext[d] {
			panic(fmt.Sprintf("exec: %s subscript %v outside extents %v", name, idx, am.ext))
		}
		off = off*am.ext[d] + (v - 1)
	}
	return mkElem(a, off)
}

// decode is elemOf's inverse, used at the ir.Storage boundary, for the
// nest-end finalize ordering and for first-time owner lookups.
func (s *progSchedule) decode(e elemID) (string, []int) {
	am := &s.arrays[e.arr()]
	idx := make([]int, len(am.ext))
	off := e.off()
	for d := len(am.ext) - 1; d >= 0; d-- {
		idx[d] = off%am.ext[d] + 1
		off /= am.ext[d]
	}
	return am.name, idx
}

// ownersOf memoizes the owner set of an element.
func (s *progSchedule) ownersOf(e elemID) []int {
	a := e.arr()
	t := s.owners[a]
	if t == nil {
		t = make([][]int, s.arrays[a].size)
		s.owners[a] = t
	}
	if o := t[e.off()]; o != nil {
		return o
	}
	name, idx := s.decode(e)
	o := s.ss.Schemes[name].Owners(s.ss.Grid, idx...)
	t[e.off()] = o
	return o
}

// written reports whether e was written earlier in the current epoch.
func (s *progSchedule) written(e elemID) bool {
	t := s.wstamp[e.arr()]
	return t != nil && t[e.off()] == s.epoch
}

// writes returns how many times e has been written so far.
func (s *progSchedule) writes(e elemID) uint32 {
	if t := s.wgen[e.arr()]; t != nil {
		return t[e.off()]
	}
	return 0
}

// noteWritten marks e written in the current epoch and invalidates the
// collective dedup's buffered copies of it, materializing the array's
// write tables on first use.
func (s *progSchedule) noteWritten(e elemID) {
	a := e.arr()
	if s.wstamp[a] == nil {
		s.wstamp[a] = make([]uint32, s.arrays[a].size)
		s.wgen[a] = make([]uint32, s.arrays[a].size)
	}
	s.wstamp[a][e.off()] = s.epoch
	s.wgen[a][e.off()]++
}

// nestBuilder is the inspector's per-nest state.
type nestBuilder struct {
	s  *progSchedule
	ns *nestSchedule
	// env is the inspector's loop binding, one slot per loop level.
	env []int32
	// pending maps a reduction accumulator to its sorted contributor
	// ranks, mirroring engine.pending (globally, not per processor).
	pending map[elemID][]int
	// Elements written earlier in the current epoch (s.written) are
	// never batch-shipped: a batched ship of such an element would
	// gather a stale value at the epoch boundary, so it either cuts the
	// epoch (write from an earlier instance) or degrades to a direct send
	// (write by this instance's own finalizes, which no cut can hoist
	// past).
	//
	// pairs accumulates the current epoch's per-pair vectored element
	// lists. Each processor's instructions of the epoch follow one head
	// slot in its stream (head[p], valid while headEp[p] == s.epoch),
	// which closeEpoch fills with the epoch's exchange; a head no
	// exchange claims stays an opNop.
	pairs  map[int64][]elemID
	head   []int
	headEp []uint32
	// seen dedups batched ships in collective mode: seen[{e, pair}]
	// holds e's write count when the pair's destination got a buffered
	// copy of e, so a repeat ship would carry the same value and one copy
	// suffices while the count is unchanged. A write of e bumps its count
	// (the buffered copies go stale), which makes the dedup window every
	// ship since the element's last write — spanning epoch cuts, not
	// reset by them: the surviving ship's value is gathered at its own
	// epoch boundary, before any write that could invalidate it. The
	// timeline still records every ship — the naive model prices them
	// all — and eval slots still reference every operand; they resolve
	// by element against the buffered copy.
	seen map[seenKey]uint32
	// scratch
	readElem []elemID
	ships    []shipT
	exSlots  [][]slot
	forced   []elemID
	readers  []int
}

type seenKey struct {
	e    elemID
	pair int64
}

type shipT struct {
	src int32
	ex  int32
	e   elemID
}

func pairKey(src, dst int32) int64 { return int64(src)<<32 | int64(dst) }

func (s *progSchedule) buildNest(nest *ir.Nest) *nestSchedule {
	ns := &nestSchedule{
		nest:  nest,
		procs: make([][]pinstr, s.nprocs),
	}
	s.compileNest(ns)
	// A fresh epoch; the first one is 1, so the zeroed write stamps and
	// head epochs never read as current.
	s.epoch++
	b := &nestBuilder{
		s: s, ns: ns,
		env:     make([]int32, len(nest.Loops)),
		pending: make(map[elemID][]int),
		pairs:   make(map[int64][]elemID),
		head:    make([]int, s.nprocs),
		headEp:  make([]uint32, s.nprocs),
		seen:    make(map[seenKey]uint32),
	}
	var walk func(level int)
	walk = func(level int) {
		for _, si := range ns.pre[level] {
			b.instance(si)
		}
		if level < len(nest.Loops) {
			lo, hi := ns.lo[level].eval(b.env), ns.hi[level].eval(b.env)
			if nest.Loops[level].Step >= 0 {
				for v := lo; v <= hi; v++ {
					b.env[level] = int32(v)
					walk(level + 1)
				}
			} else {
				for v := lo; v >= hi; v-- {
					b.env[level] = int32(v)
					walk(level + 1)
				}
			}
		}
		for _, si := range ns.post[level] {
			b.instance(si)
		}
	}
	walk(0)
	// Combine reductions still pending at nest end, in the legacy
	// string-key order the per-element engine uses (sort.Strings over
	// pkeys), so the event sequence stays byte-identical.
	type pend struct {
		key string
		e   elemID
	}
	var keys []pend
	for e := range b.pending {
		name, idx := s.decode(e)
		keys = append(keys, pend{pkey(name, idx), e})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	// Nest-end finalizes are hoistable: no later statement of the nest
	// reads them, so the whole set coalesces into one vectored exchange.
	elems := make([]elemID, len(keys))
	for i, k := range keys {
		elems[i] = k.e
	}
	b.emitBatch(elems, false)
	b.closeEpoch()
	return ns
}

// emit appends one instruction to processor p's stream, opening p's
// epoch head slot first if this is p's first instruction of the epoch.
func (b *nestBuilder) emit(p int, in pinstr) {
	if b.headEp[p] != b.s.epoch {
		b.headEp[p] = b.s.epoch
		b.head[p] = len(b.ns.procs[p])
		b.ns.procs[p] = append(b.ns.procs[p], pinstr{op: opNop})
	}
	b.ns.procs[p] = append(b.ns.procs[p], in)
}

// envOf records the current binding of the depth enclosing loops in
// the nest's env table and returns its offset.
func (b *nestBuilder) envOf(depth int) int32 {
	off := int32(len(b.ns.envs))
	b.ns.envs = append(b.ns.envs, b.env[:depth]...)
	return off
}

// evalInstr builds an opEval instruction whose operand slots are
// copied into the nest's slot table.
func (b *nestBuilder) evalInstr(role uint8, si int, e elemID, slots []slot) pinstr {
	in := pinstr{op: opEval, role: role, stmt: int32(si), elem: e,
		slot: int32(len(b.ns.slots)), nslot: int32(len(slots))}
	b.ns.slots = append(b.ns.slots, slots...)
	return in
}

// setHead installs processor p's epoch exchange ahead of its epoch
// instructions: in the head slot, or appended when p has none.
func (b *nestBuilder) setHead(p int32, in pinstr) {
	if b.headEp[p] == b.s.epoch {
		b.ns.procs[p][b.head[p]] = in
		return
	}
	b.ns.procs[p] = append(b.ns.procs[p], in)
}

// instance inspects one dynamic statement instance, appending its
// events to the timeline and its work to the per-processor streams.
// The decomposition (forced finalizes, executor set, ship list,
// pending bookkeeping, evaluation) replicates engine.instance exactly.
func (b *nestBuilder) instance(si int) {
	s := b.s
	cs := &b.ns.stmts[si]
	stmt := cs.stmt

	// Resolve the written element and the read elements.
	lhsElem := s.elemAt(&cs.lhs, b.env)
	b.readElem = b.readElem[:0]
	for ri := range cs.reads {
		b.readElem = append(b.readElem, s.elemAt(&cs.reads[ri], b.env))
	}
	readElem := b.readElem

	// Executor set: anchor owners for reductions, LHS owners otherwise.
	var executors []int
	if stmt.Reduce {
		if anchor := anchorOf(stmt); anchor >= 0 {
			executors = s.ownersOf(readElem[anchor])
		} else {
			executors = s.ownersOf(lhsElem)
		}
	} else {
		executors = s.ownersOf(lhsElem)
	}

	// Ship list: one word from the element's first owner to every
	// executor that lacks it. (The reduce accumulator is never shipped;
	// executors that own the element read their local copy.)
	b.ships = b.ships[:0]
	for _, e := range readElem {
		if stmt.Reduce && e == lhsElem {
			continue
		}
		owners := s.ownersOf(e)
		src := owners[0]
		for _, ex := range executors {
			if contains(owners, ex) {
				continue
			}
			b.ships = append(b.ships, shipT{src: int32(src), ex: int32(ex), e: e})
		}
	}

	// Epoch cut: a shipped element written by an earlier instance of
	// this epoch would be gathered stale at the epoch boundary, so the
	// boundary moves here, before this whole instance.
	for _, sh := range b.ships {
		if s.written(sh.e) {
			b.closeEpoch()
			break
		}
	}

	// Forced finalizes: any pending reduction read by this instance
	// (other than its own accumulator), then a non-reduce write to a
	// pending element. They are mid-epoch — ordered before this
	// instance's reads — so the batch covers exactly this instance's
	// set (pipeline mode folds them into one vectored exchange; the
	// classification of ISSUE 5's inspector).
	b.forced = b.forced[:0]
	for _, e := range readElem {
		if stmt.Reduce && e == lhsElem {
			continue
		}
		if _, pend := b.pending[e]; pend && !containsElem(b.forced, e) {
			b.forced = append(b.forced, e)
		}
	}
	if _, pend := b.pending[lhsElem]; pend && !stmt.Reduce && !containsElem(b.forced, lhsElem) {
		b.forced = append(b.forced, lhsElem)
	}
	b.emitBatch(b.forced, true)

	// Liveness events for fan-out pruning: local reads of
	// reduction-accumulator elements (reads satisfied by ships are the
	// root's job, not the reader's copy), and overwrites.
	if s.pipeline {
		for _, e := range readElem {
			if !s.redArrs[e.arr()] || (stmt.Reduce && e == lhsElem) {
				continue
			}
			owners := s.ownersOf(e)
			b.readers = b.readers[:0]
			if stmt.Reduce {
				// Only the contributor evaluates; replicas just drain
				// their shipped slots.
				if contains(owners, executors[0]) {
					b.readers = append(b.readers, executors[0])
				}
			} else {
				for _, ex := range executors {
					if contains(owners, ex) {
						b.readers = append(b.readers, ex)
					}
				}
			}
			if len(b.readers) > 0 {
				s.noteRead(e, b.readers)
			}
		}
		if !stmt.Reduce && s.redArrs[lhsElem.arr()] {
			s.noteWrite(lhsElem)
		}
	}

	// Emit the ships: timeline events in the global lockstep order, and
	// either an epoch-batched pair entry or — for elements this
	// instance's own finalizes just wrote — a residual direct send.
	for len(b.exSlots) < len(executors) {
		b.exSlots = append(b.exSlots, nil)
	}
	for xi := range executors {
		b.exSlots[xi] = b.exSlots[xi][:0]
	}
	for _, sh := range b.ships {
		b.ns.timeline = append(b.ns.timeline, top{kind: tXfer, a: sh.src, b: sh.ex})
		xi := indexOf(executors, int(sh.ex))
		if s.written(sh.e) {
			b.emit(int(sh.src), pinstr{op: opSendDirect, dst: sh.ex, elem: sh.e})
			b.exSlots[xi] = append(b.exSlots[xi], slot{src: sh.src, elem: sh.e, direct: true})
			continue
		}
		k := pairKey(sh.src, sh.ex)
		if s.collective {
			sk, gen := seenKey{sh.e, k}, s.writes(sh.e)
			if g, ok := b.seen[sk]; !ok || g != gen {
				b.seen[sk] = gen
				b.pairs[k] = append(b.pairs[k], sh.e)
			}
		} else {
			b.pairs[k] = append(b.pairs[k], sh.e)
		}
		b.exSlots[xi] = append(b.exSlots[xi], slot{src: sh.src, elem: sh.e})
	}

	if stmt.Reduce {
		// Record the contributor; only it evaluates (into its partial
		// store), but every executor still receives its shipped
		// operands, exactly like the per-element engine.
		contrib := executors[0]
		list := b.pending[lhsElem]
		if len(list) == 0 || !contains(list, contrib) {
			b.pending[lhsElem] = insertSorted(list, contrib)
		}
		for xi, ex := range executors {
			if ex == contrib {
				in := b.evalInstr(roleReduce, si, lhsElem, b.exSlots[xi])
				in.env = b.envOf(stmt.Depth)
				b.emit(ex, in)
			} else if len(b.exSlots[xi]) > 0 {
				b.emit(ex, b.evalInstr(roleRecvOnly, si, lhsElem, b.exSlots[xi]))
			}
		}
		b.ns.timeline = append(b.ns.timeline, top{kind: tCompute, a: int32(contrib), b: int32(stmt.Flops)})
		return
	}

	env := b.envOf(stmt.Depth)
	for xi, ex := range executors {
		in := b.evalInstr(roleWrite, si, lhsElem, b.exSlots[xi])
		in.env = env
		b.emit(ex, in)
		b.ns.timeline = append(b.ns.timeline, top{kind: tCompute, a: int32(ex), b: int32(stmt.Flops)})
	}
	s.noteWritten(lhsElem)
}

// recordFinalize pops a pending reduction and records everything the
// combine means for the NAIVE model — the per-element star's timeline
// events (contributors send partials to the accumulator's first owner,
// which folds them in contributor order and redistributes the total to
// the other owners), the liveness site, and the written mark — without
// choosing a transport lowering. replayStats stays bit-identical to
// RunExact no matter how the value pass actually moves the partials.
func (b *nestBuilder) recordFinalize(e elemID) *finOp {
	contribs := b.pending[e]
	delete(b.pending, e)
	owners := b.s.ownersOf(e)
	root := owners[0]

	for _, c := range contribs {
		if c != root {
			b.ns.timeline = append(b.ns.timeline, top{kind: tXfer, a: int32(c), b: int32(root)})
		}
		b.ns.timeline = append(b.ns.timeline, top{kind: tCompute, a: int32(root), b: 1})
	}
	for _, o := range owners {
		if o != root {
			b.ns.timeline = append(b.ns.timeline, top{kind: tXfer, a: int32(root), b: int32(o)})
		}
	}

	f := &finOp{elem: e, contribs: contribs, owners: owners, root: root}
	if b.s.pipeline {
		b.s.noteFinalize(e, f)
	}
	b.s.noteWritten(e)
	return f
}

// emitFinalize lowers one finalize as the legacy per-element star
// (pipeline off): partials converge on the root one message each, the
// total fans out to every other owner.
func (b *nestBuilder) emitFinalize(e elemID) {
	f := b.recordFinalize(e)
	in := pinstr{op: opFin, aux: int32(len(b.ns.fins))}
	b.ns.fins = append(b.ns.fins, f)
	b.emit(f.root, in)
	for _, c := range f.contribs {
		if c != f.root {
			b.emit(c, in)
		}
	}
	for _, o := range f.owners {
		if o != f.root && !contains(f.contribs, o) {
			b.emit(o, in)
		}
	}
}

// emitBatch lowers a batch of finalizes. Pipeline off, each is a
// per-element star. Pipeline on, the batch becomes one vectored
// exchange: ring-lowered when mid-epoch and the items share one
// root-anchored contributor chain (the Section 5 accumulate-then-sweep
// shape — SOR), two-phase gather + fan-out otherwise. The opRed
// instruction goes to every processor that could participate (roots,
// contributors, owners); runtime roles are derived from the items, so
// non-participants fall through without touching the wire.
func (b *nestBuilder) emitBatch(elems []elemID, mid bool) {
	if len(elems) == 0 {
		return
	}
	if !b.s.pipeline {
		for _, e := range elems {
			b.emitFinalize(e)
		}
		return
	}
	items := make([]*finOp, len(elems))
	for i, e := range elems {
		items[i] = b.recordFinalize(e)
	}
	r := &redOp{items: items, ring: mid && ringEligible(items)}
	var parts []int
	for _, f := range items {
		for _, p := range f.contribs {
			if !contains(parts, p) {
				parts = insertSorted(parts, p)
			}
		}
		for _, p := range f.owners {
			if !contains(parts, p) {
				parts = insertSorted(parts, p)
			}
		}
	}
	in := pinstr{op: opRed, aux: int32(len(b.ns.reds))}
	b.ns.reds = append(b.ns.reds, r)
	for _, p := range parts {
		b.emit(p, in)
	}
}

func containsElem(xs []elemID, v elemID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// closeEpoch freezes the current epoch: the accumulated pair traffic
// is lowered to its transport (the point-to-point vectored flush, or
// the composed collective redistribution) and installed in the epoch
// head slots, and the written set resets (a new epoch stamp).
func (b *nestBuilder) closeEpoch() {
	if len(b.pairs) > 0 {
		if b.s.collective {
			b.lowerCollective()
		} else {
			b.lowerPairFlush()
		}
		clear(b.pairs)
	}
	b.s.epoch++
}

// lowerPairFlush is the point-to-point lowering: every processor's
// vectored exchange (sends in ascending destination order, then
// receives in ascending source order). At most one message crosses
// each ordered pair per epoch and every processor sends before it
// receives, which is what makes the value pass deadlock-free at
// ChanCap=1.
func (b *nestBuilder) lowerPairFlush() {
	keys := make([]int64, 0, len(b.pairs))
	for k := range b.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	flushes := make(map[int32]*flushOp)
	get := func(p int32) *flushOp {
		f := flushes[p]
		if f == nil {
			f = &flushOp{}
			flushes[p] = f
		}
		return f
	}
	// keys sorted by (src, dst): per-src send lists come out in
	// ascending destination order.
	for _, k := range keys {
		src, dst := int32(k>>32), int32(k&0xffffffff)
		get(src).sends = append(get(src).sends, flushSend{dst: dst, elems: b.pairs[k]})
	}
	// Receive lists in ascending source order.
	sort.Slice(keys, func(i, j int) bool {
		di, dj := keys[i]&0xffffffff, keys[j]&0xffffffff
		if di != dj {
			return di < dj
		}
		return keys[i]>>32 < keys[j]>>32
	})
	for _, k := range keys {
		src, dst := int32(k>>32), int32(k&0xffffffff)
		get(dst).recvs = append(get(dst).recvs, flushRecv{src: src, n: len(b.pairs[k])})
	}
	for p, f := range flushes {
		b.setHead(p, pinstr{op: opFlush, aux: int32(len(b.ns.flushes))})
		b.ns.flushes = append(b.ns.flushes, f)
	}
}

// lowerCollective composes the epoch's traffic into a collective
// redistribution plan. Per source, each (already deduped) element's
// destination set is classified: multi-destination elements group by
// identical destination set and each group becomes a binomial
// multicast-tree step rooted at the source (the tree moves the group
// in log2(W+1) rounds and every edge carries the group once — the
// same total words as the deduped star, with the source's send load
// spread over the relays); single-destination elements remain a
// vectored pair exchange, appended as the final round. Tree edges of
// all steps with the same stride execute in the same round, merged
// into one message per ordered pair, so every round keeps the
// one-message-per-pair sends-before-receives shape that the
// point-to-point flush relies on for ChanCap=1 deadlock freedom.
func (b *nestBuilder) lowerCollective() {
	keys := make([]int64, 0, len(b.pairs))
	for k := range b.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Per source (ascending): each element's destination set, destinations
	// ascending, elements in first-ship order.
	type stepT struct {
		origin  int32
		members []int32 // origin + destinations, ascending
		rootPos int     // origin's index in members
		elems   []elemID
	}
	var steps []stepT
	residual := make(map[int64][]elemID)
	destsOf := make(map[elemID][]int32)
	var order []elemID
	var sig []byte
	for i := 0; i < len(keys); {
		src := int32(keys[i] >> 32)
		for e := range destsOf {
			delete(destsOf, e)
		}
		order = order[:0]
		for ; i < len(keys) && int32(keys[i]>>32) == src; i++ {
			dst := int32(keys[i] & 0xffffffff)
			for _, e := range b.pairs[keys[i]] {
				if destsOf[e] == nil {
					order = append(order, e)
				}
				destsOf[e] = append(destsOf[e], dst)
			}
		}
		groupIdx := make(map[string]int)
		for _, e := range order {
			dests := destsOf[e]
			if len(dests) == 1 {
				k := pairKey(src, dests[0])
				residual[k] = append(residual[k], e)
				continue
			}
			sig = sig[:0]
			for _, d := range dests {
				sig = append(sig, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
			gi, ok := groupIdx[string(sig)]
			if !ok {
				members := make([]int32, len(dests), len(dests)+1)
				copy(members, dests)
				pos := len(members)
				for j, m := range members {
					if src < m {
						pos = j
						break
					}
				}
				members = append(members, 0)
				copy(members[pos+1:], members[pos:])
				members[pos] = src
				gi = len(steps)
				groupIdx[string(sig)] = gi
				steps = append(steps, stepT{origin: src, members: members, rootPos: pos})
			}
			steps[gi].elems = append(steps[gi].elems, e)
		}
	}

	// Round r moves every step's tree edges of stride 2^r, merged into
	// one message per ordered pair (segments in step order, identically
	// derived on both endpoints); the residual traffic is the last round.
	maxRounds := 0
	for _, st := range steps {
		d := 0
		for 1<<d < len(st.members) {
			d++
		}
		if d > maxRounds {
			maxRounds = d
		}
	}
	rounds := make([]map[int64][]redistSeg, 0, maxRounds+1)
	for r := 0; r < maxRounds; r++ {
		stride := 1 << r
		m := make(map[int64][]redistSeg)
		for si := range steps {
			st := &steps[si]
			n := len(st.members)
			for rel := 0; rel < stride && rel+stride < n; rel++ {
				snd := st.members[(st.rootPos+rel)%n]
				rcv := st.members[(st.rootPos+rel+stride)%n]
				k := pairKey(snd, rcv)
				m[k] = append(m[k], redistSeg{origin: st.origin, elems: st.elems})
			}
		}
		rounds = append(rounds, m)
	}
	if len(residual) > 0 {
		m := make(map[int64][]redistSeg)
		for k, elems := range residual {
			m[k] = []redistSeg{{origin: int32(k >> 32), elems: elems}}
		}
		rounds = append(rounds, m)
	}

	// Materialize per-processor round schedules: sends in ascending
	// destination order, then receives in ascending source order.
	ops := make(map[int32]*redistOp)
	get := func(p int32) *redistOp {
		op := ops[p]
		if op == nil {
			op = &redistOp{rounds: make([]redistRound, len(rounds))}
			ops[p] = op
		}
		return op
	}
	ks := make([]int64, 0, 16)
	for r, m := range rounds {
		ks = ks[:0]
		for k := range m {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			snd, rcv := int32(k>>32), int32(k&0xffffffff)
			op := get(snd)
			op.rounds[r].sends = append(op.rounds[r].sends, redistMsg{peer: rcv, segs: m[k]})
		}
		sort.Slice(ks, func(i, j int) bool {
			di, dj := ks[i]&0xffffffff, ks[j]&0xffffffff
			if di != dj {
				return di < dj
			}
			return ks[i]>>32 < ks[j]>>32
		})
		for _, k := range ks {
			snd, rcv := int32(k>>32), int32(k&0xffffffff)
			op := get(rcv)
			op.rounds[r].recvs = append(op.rounds[r].recvs, redistMsg{peer: snd, segs: m[k]})
		}
	}
	for p, op := range ops {
		b.setHead(p, pinstr{op: opRedist, aux: int32(len(b.ns.redists))})
		b.ns.redists = append(b.ns.redists, op)
	}
}

// replayStats re-derives the per-element engine's Stats by replaying
// the timeline single-threadedly. Every clock update mirrors
// machine.Compute / machine.Send / machine.Recv expression for
// expression (one-word messages), so the result — including trace
// events — is bit-identical to what RunExact's machine produces.
func (s *progSchedule) replayStats(iters int, cfg machine.Config) machine.Stats {
	n := s.nprocs
	clock := make([]float64, n)
	flops := make([]int64, n)
	msgs := make([]int64, n)
	words := make([]int64, n)
	maxw := make([]int64, n)
	// Per-pair counters use the same sparse machine.PairTally as both
	// runtimes, so the ProcStats snapshots DeepEqual the oracle's.
	pairs := make([]machine.PairTally, n)
	tr := cfg.Tracer
	for it := 0; it < iters; it++ {
		for _, ns := range s.nests {
			for _, op := range ns.timeline {
				switch op.kind {
				case tCompute:
					p, f := op.a, op.b
					flops[p] += int64(f)
					before := clock[p]
					clock[p] += float64(f) * cfg.Tf
					if tr != nil && clock[p] > before {
						tr.Record(machine.Event{Proc: int(p), Kind: machine.EvCompute, Start: before, End: clock[p], Peer: -1})
					}
				case tXfer:
					src, dst := op.a, op.b
					before := clock[src]
					var arrival float64
					clock[src], arrival = cfg.SendTiming(clock[src], 1)
					msgs[src]++
					words[src]++
					if maxw[src] < 1 {
						maxw[src] = 1
					}
					pairs[src].Note(int(dst), 1)
					if tr != nil && arrival > before {
						tr.Record(machine.Event{Proc: int(src), Kind: machine.EvSend, Start: before, End: arrival, Peer: int(dst), Words: 1})
					}
					if arrival > clock[dst] {
						if tr != nil {
							tr.Record(machine.Event{Proc: int(dst), Kind: machine.EvWait, Start: clock[dst], End: arrival, Peer: int(src)})
						}
						clock[dst] = arrival
					}
				}
			}
		}
	}
	var st machine.Stats
	st.PerProc = make([]machine.ProcStats, n)
	for r := 0; r < n; r++ {
		st.PerProc[r] = machine.ProcStats{Clock: clock[r], Flops: flops[r], Messages: msgs[r], Words: words[r], MaxMsgWords: maxw[r],
			Peers: pairs[r].Snapshot()}
		st.AddProc(st.PerProc[r])
	}
	return st
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
