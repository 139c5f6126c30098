// The compile driver: wires component alignment, exact cost counting, the
// dynamic programming algorithm, and the dependence-driven pipelining
// decision into the pipeline of the paper.
//
// The cost engine behind Algorithm 1 is built for speed:
//
//   - ChangeCost is computed analytically (dist.RedistLoads) from
//     per-dimension interval intersections instead of enumerating array
//     elements; the element-wise oracle remains available behind
//     ExactChangeCost for ablation and property testing.
//   - Nest execution counts go through cost.CountNestOpts, which answers
//     in closed form (owner-interval/residue intersections per dimension,
//     factorized across dimensions) for affine nests and falls back to
//     the reference enumerator otherwise; ExactNestCount forces the
//     enumerator for every nest, for ablation and equivalence testing.
//   - SegmentCost, ChangeCost and LoopCarriedCost results are memoized
//     (segment costs by (i,j), redistribution costs by canonical
//     SchemeSet signature pairs), collapsing the DP's O(s³) cost-engine
//     invocations to O(distinct inputs).
//   - Candidate grid shapes inside a segment and the DP's M[i][j] table
//     are evaluated on a NumCPU-bounded worker pool. Parallel runs only
//     warm the memoization caches; the DP itself then runs serially over
//     cached values, so results are bit-identical to Jobs=1.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dmcc/internal/align"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/dist"
	"dmcc/internal/ir"
)

// Compiler compiles one program for a machine with NProcs processors.
type Compiler struct {
	Program *ir.Program
	Model   cost.Model
	// Bind gives values to the program's size parameters, e.g. {"m": 64}.
	Bind map[string]int
	// NProcs is the total processor count.
	NProcs int
	// Weights parameterizes affinity-graph edge weights.
	Weights align.WeightParams
	// UseGreedyAlign switches the alignment heuristic (ablation).
	UseGreedyAlign bool
	// Jobs bounds the cost-engine worker pool; 0 means runtime.NumCPU(),
	// 1 forces the serial path.
	Jobs int
	// ExactChangeCost prices redistribution with the element-enumeration
	// oracle instead of the analytic calculator (ablation/reference).
	ExactChangeCost bool
	// ExactNestCount prices every nest with the reference
	// iteration-space walker (cost.CountNestOptsExact) instead of the
	// analytic-first dispatcher — the PR 1 engine, kept for ablation and
	// byte-identical-result testing.
	ExactNestCount bool
	// NoCache disables cost memoization (ablation).
	NoCache bool
	// PipelinedReductions prices multi-processor reductions as the §5
	// ring pipeline the exec backend lowers them to (a neighbour chain
	// of partial folds) instead of the naive log-depth combining tree.
	// The chain moves the same number of words but serialises them one
	// hop per processor, so no processor — the root in particular —
	// receives more than O(1) reduction messages per element, which
	// lets the DP keep layouts the tree pricing rejected.
	PipelinedReductions bool
	// CollectiveRedist prices inter-segment scheme changes as the
	// composed collective lowering (dist.ClassifyChange: an AllToAll
	// personalized exchange plus per-group multicast trees) instead of
	// the point-to-point bottleneck load. Replication widenings then
	// cost O(m log W) rather than the O(m (W-1)) star, which can let
	// Algorithm 1 buy a cheap redistribution into a better layout that
	// the p2p pricing rejects — the ChangeCost analogue of what
	// PipelinedReductions does for SegmentCost.
	CollectiveRedist bool

	// Engines counts which counting engine answered each nest-pricing
	// call, so fast-path regressions (an eligible nest silently falling
	// back to the enumerator) are observable. Safe for concurrent use; the
	// pointer is shared when an evaluator clones the compiler.
	Engines *EngineStats

	mu       sync.Mutex
	poolOnce sync.Once
	sem      chan struct{}
	segCache map[[2]int]*segEntry
	chgCache map[string]*costEntry
	lcCache  map[string]*costEntry
}

// EngineStats are cumulative counting-engine telemetry counters. All
// fields are updated atomically.
type EngineStats struct {
	// AnalyticHits counts nests priced in closed form.
	AnalyticHits atomic.Int64
	// ExactFallbacks counts nests priced by the reference enumerator:
	// those the analytic engine declines, and every nest under the
	// ExactNestCount ablation.
	ExactFallbacks atomic.Int64
}

// Snapshot returns the current counter values as a map keyed the way the
// dmcc report and the daemon /metrics endpoint expose them.
func (s *EngineStats) Snapshot() map[string]int64 {
	if s == nil {
		return map[string]int64{"analytic_hits": 0, "exact_fallbacks": 0}
	}
	return map[string]int64{
		"analytic_hits":   s.AnalyticHits.Load(),
		"exact_fallbacks": s.ExactFallbacks.Load(),
	}
}

type segEntry struct {
	once sync.Once
	cost float64
	ss   *SchemeSet
	err  error
}

type costEntry struct {
	once sync.Once
	cost float64
	err  error
}

// NewCompiler returns a compiler with the standard configuration.
func NewCompiler(p *ir.Program, model cost.Model, bind map[string]int, nprocs int) *Compiler {
	wp := align.WeightParams{Bind: bind, N: nprocs, Tc: model.Tc}
	return &Compiler{Program: p, Model: model, Bind: bind, NProcs: nprocs, Weights: wp}
}

// jobs is the effective worker budget.
func (c *Compiler) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.NumCPU()
}

// fanOut runs fn(k) for k in [0, n) using at most jobs() concurrent
// workers drawn from a shared pool; calls run inline when the pool is
// saturated (so nested fan-outs never deadlock). fn must be safe to run
// concurrently with other indices. A panic in fn is recovered where it
// runs and returned as an error — the lowest panicking index's, so the
// error does not depend on scheduling — instead of killing the process
// from a worker goroutine no caller can recover.
func (c *Compiler) fanOut(n int, fn func(k int)) error {
	panics := make([]error, n)
	run := func(k int) {
		defer recoverError(&panics[k])
		fn(k)
	}
	if n <= 1 || c.jobs() == 1 {
		for k := 0; k < n; k++ {
			run(k)
		}
	} else {
		c.poolOnce.Do(func() { c.sem = make(chan struct{}, c.jobs()) })
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			select {
			case c.sem <- struct{}{}:
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					defer func() { <-c.sem }()
					run(k)
				}(k)
			default:
				run(k)
			}
		}
		wg.Wait()
	}
	for _, err := range panics {
		if err != nil {
			return err
		}
	}
	return nil
}

// ErrInternal marks an error recovered from a panic inside the
// compiler, as opposed to a rejected input; callers tell them apart
// with errors.Is.
var ErrInternal = errors.New("core: internal error")

// recoverError turns a panic of the calling goroutine into *err, wrapping
// ErrInternal. Deferred by fanOut's workers and by every memoized cost
// computation, so a panic is stored in the cache entry as an error rather
// than leaving a zero cost behind a completed sync.Once.
func recoverError(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrInternal, r)
	}
}

// countNest dispatches nest counting to the engine the configuration
// selects: the analytic-first dispatcher by default, the reference
// walker under ExactNestCount.
func (c *Compiler) countNest(nest *ir.Nest, ss *SchemeSet, opts cost.CountOptions) (cost.Counts, error) {
	opts.PipelinedReduction = c.PipelinedReductions
	if c.ExactNestCount {
		if c.Engines != nil {
			c.Engines.ExactFallbacks.Add(1)
		}
		return cost.CountNestOptsExact(c.Program, nest, ss.Schemes, ss.Grid, c.Bind, opts)
	}
	ct, eng, err := cost.CountNestOptsEngine(c.Program, nest, ss.Schemes, ss.Grid, c.Bind, opts)
	if c.Engines != nil && err == nil {
		if eng == cost.EngineAnalytic {
			c.Engines.AnalyticHits.Add(1)
		} else {
			c.Engines.ExactFallbacks.Add(1)
		}
	}
	return ct, err
}

// writtenAtOrAfter reports the arrays written by nests with (0-based)
// index >= t — the loop-carried candidates for reads in nest t of an
// iterative program.
func (c *Compiler) writtenAtOrAfter(t int) map[string]bool {
	out := map[string]bool{}
	for _, nest := range c.Program.Nests[t:] {
		for _, st := range nest.Stmts {
			out[st.LHS.Array] = true
		}
	}
	return out
}

// isLoopCarriedRead reports whether a read of array a in nest t (0-based)
// takes its value from a later write of the same iteration-body pass,
// i.e. crosses the iterative loop's back edge.
func (c *Compiler) isLoopCarriedRead(t int, a string) bool {
	if !c.Program.Iterative {
		return false
	}
	return c.writtenAtOrAfter(t)[a]
}

// align partitions the affinity graph of the given nests.
func (c *Compiler) alignNests(nests []*ir.Nest) (align.Partition, error) {
	g, err := align.BuildGraph(c.Program, nests, c.Weights)
	if err != nil {
		return align.Partition{}, err
	}
	if c.UseGreedyAlign {
		return align.GreedyAlign(g, 2)
	}
	return align.ExactAlign(g, 2)
}

// SegmentCost implements SegmentCoster: M[i][j] is the cheapest execution
// cost of nests L_i..L_{i+j-1} under a single scheme set derived from the
// subsequence's own component alignment, minimized over the candidate
// grid shapes of Section 3. Loop-carried reads are excluded here and
// priced by LoopCarriedCost. Results are memoized by (i,j).
func (c *Compiler) SegmentCost(i, j int) (float64, *SchemeSet, error) {
	if c.NoCache {
		return c.segmentCost(i, j)
	}
	key := [2]int{i, j}
	c.mu.Lock()
	if c.segCache == nil {
		c.segCache = map[[2]int]*segEntry{}
	}
	e, ok := c.segCache[key]
	if !ok {
		e = &segEntry{}
		c.segCache[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.cost, e.ss, e.err = c.segmentCost(i, j) })
	return e.cost, e.ss, e.err
}

func (c *Compiler) segmentCost(i, j int) (_ float64, _ *SchemeSet, err error) {
	defer recoverError(&err)
	if i < 1 || j < 1 || i+j-1 > len(c.Program.Nests) {
		return 0, nil, fmt.Errorf("core: segment (%d,%d) out of range", i, j)
	}
	nests := c.Program.Nests[i-1 : i-1+j]
	pt, err := c.alignNests(nests)
	if err != nil {
		return 0, nil, err
	}
	cyclic := false
	for _, n := range nests {
		if Triangular(n) {
			cyclic = true
		}
	}
	shapes := GridShapes(c.NProcs)
	sets := make([]*SchemeSet, len(shapes))
	costs := make([]float64, len(shapes))
	errs := make([]error, len(shapes))
	err = c.fanOut(len(shapes), func(k int) {
		ss, err := DeriveSchemes(c.Program, pt, shapes[k], c.Bind, cyclic)
		if err != nil {
			errs[k] = err
			return
		}
		total := 0.0
		for t, nest := range nests {
			globalT := i - 1 + t
			ct, err := c.countNest(nest, ss, cost.CountOptions{
				IncludeRead: func(a string) bool { return !c.isLoopCarriedRead(globalT, a) },
			})
			if err != nil {
				errs[k] = err
				return
			}
			total += ct.Time(c.Model).Total()
		}
		sets[k], costs[k] = ss, total
	})
	if err != nil {
		return 0, nil, err
	}
	// Serial reduce in shape order with a strict < keeps the winning
	// shape identical to the historical serial loop on ties.
	var best *SchemeSet
	bestCost := 0.0
	for k := range shapes {
		if errs[k] != nil {
			return 0, nil, errs[k]
		}
		if best == nil || costs[k] < bestCost {
			best, bestCost = sets[k], costs[k]
		}
	}
	return bestCost, best, nil
}

// ChangeCost prices redistributing every array from one scheme set to
// the next: for each element a destination owner lacks, one word is
// received, and the matching send is split evenly across the element's
// current owners (a replicated array's copies share the send load
// instead of overloading one canonical replica — the cheapest static
// split, and the one the analytic calculator models; see
// dist.RedistLoads). The time estimate is the most-loaded processor's
// traffic, like Counts.Time. Results are memoized by signature pair.
func (c *Compiler) ChangeCost(from, to *SchemeSet) (float64, error) {
	if from == nil || to == nil {
		return 0, fmt.Errorf("core: ChangeCost on nil scheme set")
	}
	if c.NoCache {
		return c.changeCost(from, to)
	}
	key := from.Signature() + "=>" + to.Signature()
	c.mu.Lock()
	if c.chgCache == nil {
		c.chgCache = map[string]*costEntry{}
	}
	e, ok := c.chgCache[key]
	if !ok {
		e = &costEntry{}
		c.chgCache[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.cost, e.err = c.changeCost(from, to) })
	return e.cost, e.err
}

func (c *Compiler) changeCost(from, to *SchemeSet) (_ float64, err error) {
	defer recoverError(&err)
	names := make([]string, 0, len(c.Program.Arrays))
	for n := range c.Program.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	loads := dist.NewLoads()
	var plans []dist.RedistPlan
	for _, name := range names {
		sFrom, ok1 := from.Schemes[name]
		sTo, ok2 := to.Schemes[name]
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("core: array %s missing from a scheme set", name)
		}
		shape, err := shapeOf(c.Program, name, c.Bind)
		if err != nil {
			return 0, err
		}
		if c.CollectiveRedist && !c.ExactChangeCost {
			pl, err := dist.ClassifyChange(from.Grid, to.Grid, shape, sFrom, sTo)
			if err != nil {
				return 0, err
			}
			plans = append(plans, pl)
			continue
		}
		if c.ExactChangeCost {
			loads.Add(dist.RedistLoadsExact(from.Grid, to.Grid, shape, sFrom, sTo))
			continue
		}
		l, err := dist.RedistLoads(from.Grid, to.Grid, shape, sFrom, sTo)
		if err != nil {
			return 0, err
		}
		loads.Add(l)
	}
	if plans != nil {
		return c.Model.CollectiveChangeTime(plans), nil
	}
	return loads.MaxLoad() * c.Model.Tc, nil
}

// changeLoadsScaled is changeCost's load accumulation in exact integer
// arithmetic: every array's dist.RedistLoadsScaled bill merged over a
// common replica denominator. Only the plain point-to-point pricing has
// a scaled form; collective and exact-transport configurations report
// an error so callers fall back to the numeric path.
func (c *Compiler) changeLoadsScaled(from, to *SchemeSet) (dist.ScaledLoads, error) {
	if c.CollectiveRedist || c.ExactChangeCost {
		return dist.ScaledLoads{}, fmt.Errorf("core: scaled change loads cover only the point-to-point pricing")
	}
	names := make([]string, 0, len(c.Program.Arrays))
	for n := range c.Program.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	acc := dist.ScaledLoads{In: map[int]int64{}, Out: map[int]int64{}, Den: 1}
	for _, name := range names {
		sFrom, ok1 := from.Schemes[name]
		sTo, ok2 := to.Schemes[name]
		if !ok1 || !ok2 {
			return dist.ScaledLoads{}, fmt.Errorf("core: array %s missing from a scheme set", name)
		}
		shape, err := shapeOf(c.Program, name, c.Bind)
		if err != nil {
			return dist.ScaledLoads{}, err
		}
		sl, err := dist.RedistLoadsScaled(from.Grid, to.Grid, shape, sFrom, sTo)
		if err != nil {
			return dist.ScaledLoads{}, err
		}
		acc.Add(sl)
	}
	return acc, nil
}

// LoopCarriedCost prices the loop-carried reads (the CTime2 term of
// Fig 3) under the final segment's schemes: the words needed to bring
// each updated array from its owners to the processors that read it at
// the top of the next iteration. Results are memoized by signature.
func (c *Compiler) LoopCarriedCost(final *SchemeSet) (float64, error) {
	if !c.Program.Iterative {
		return 0, nil
	}
	if c.NoCache {
		return c.loopCarriedCost(final)
	}
	key := final.Signature()
	c.mu.Lock()
	if c.lcCache == nil {
		c.lcCache = map[string]*costEntry{}
	}
	e, ok := c.lcCache[key]
	if !ok {
		e = &costEntry{}
		c.lcCache[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.cost, e.err = c.loopCarriedCost(final) })
	return e.cost, e.err
}

func (c *Compiler) loopCarriedCost(final *SchemeSet) (_ float64, err error) {
	defer recoverError(&err)
	total := 0.0
	for t, nest := range c.Program.Nests {
		ct, err := c.countNest(nest, final, cost.CountOptions{
			IncludeRead:   func(a string) bool { return c.isLoopCarriedRead(t, a) },
			SkipReduction: true,
			SkipFlops:     true,
		})
		if err != nil {
			return 0, err
		}
		total += ct.Time(c.Model).Comm
	}
	return total, nil
}

// precompute fills the cost caches on the worker pool: every segment
// cost M[i][j], then every redistribution cost between the distinct
// scheme sets those segments produced (plus the loop-carried cost of
// each candidate final scheme). The subsequent serial DP is then pure
// cache lookups, which is what keeps parallel output bit-identical to
// the serial path.
func (c *Compiler) precompute(s int) {
	if c.NoCache || c.jobs() == 1 {
		return
	}
	type ij struct{ i, j int }
	var keys []ij
	for j := 1; j <= s; j++ {
		for i := 1; i+j-1 <= s; i++ {
			keys = append(keys, ij{i, j})
		}
	}
	// Errors and recovered panics alike resurface from the caches when
	// RunDP asks again, so the warm-up fan-outs ignore them.
	_ = c.fanOut(len(keys), func(k int) {
		c.SegmentCost(keys[k].i, keys[k].j) //nolint:errcheck
	})
	// Distinct scheme sets, in a deterministic order.
	bySig := map[string]*SchemeSet{}
	var sigs []string
	for _, key := range keys {
		_, ss, err := c.SegmentCost(key.i, key.j)
		if err != nil || ss == nil {
			continue
		}
		sig := ss.Signature()
		if _, ok := bySig[sig]; !ok {
			bySig[sig] = ss
			sigs = append(sigs, sig)
		}
	}
	sort.Strings(sigs)
	type pair struct{ from, to *SchemeSet }
	var pairs []pair
	for _, a := range sigs {
		for _, b := range sigs {
			if a != b {
				pairs = append(pairs, pair{bySig[a], bySig[b]})
			}
		}
	}
	_ = c.fanOut(len(pairs), func(k int) {
		c.ChangeCost(pairs[k].from, pairs[k].to) //nolint:errcheck — cache warm-up only
	})
	if c.Program.Iterative {
		_ = c.fanOut(len(sigs), func(k int) {
			c.LoopCarriedCost(bySig[sigs[k]]) //nolint:errcheck — cache warm-up only
		})
	}
}

// CompileResult is the full outcome of the pipeline for one program.
type CompileResult struct {
	DP *DPResult
	// WholeProgram is the single-scheme baseline M[1][s] (+ loop-carried),
	// i.e. the Section 3 method, for comparison with the DP plan.
	WholeProgramCost float64
	// Pipelining holds the per-nest dependence analysis and decision
	// under the final scheme's distribution (Sections 5-6).
	Pipelining []dep.PipelineDecision
}

// Compile runs the full pipeline: per-segment alignment + Algorithm 1 +
// pipelining analysis. With Jobs != 1 the cost tables are precomputed in
// parallel first; the DP itself always runs serially over the caches, so
// the result does not depend on Jobs. A panic anywhere in the pipeline,
// worker goroutines included, comes back as an error.
func (c *Compiler) Compile() (_ *CompileResult, err error) {
	defer recoverError(&err)
	if err := c.Program.Validate(); err != nil {
		return nil, err
	}
	s := len(c.Program.Nests)
	c.precompute(s)
	res, err := RunDP(s, c, c.Program.Iterative)
	if err != nil {
		return nil, err
	}
	whole, wholeSS, err := c.SegmentCost(1, s)
	if err != nil {
		return nil, err
	}
	if c.Program.Iterative {
		lc, err := c.LoopCarriedCost(wholeSS)
		if err != nil {
			return nil, err
		}
		whole += lc
	}
	out := &CompileResult{DP: res, WholeProgramCost: whole}

	// Pipelining analysis per nest under its chosen segment's schemes.
	for _, seg := range res.Segments {
		for t := seg.Start - 1; t < seg.Start-1+seg.Len; t++ {
			nest := c.Program.Nests[t]
			distDim := map[string]int{}
			for name := range c.Program.Arrays {
				distDim[name] = distributedDim(seg.Schemes, name)
			}
			mu, err := dep.DeriveMapping(c.Program, nest, distDim)
			if err != nil {
				// Nests with no distributed LHS (fully replicated) have
				// nothing to pipeline.
				continue
			}
			out.Pipelining = append(out.Pipelining, dep.DecidePipelining(c.Program, nest, mu))
		}
	}
	return out, nil
}

// distributedDim returns the first array dimension mapped to a grid
// dimension with more than one processor, or -1 if the array is
// effectively replicated or serial.
func distributedDim(ss *SchemeSet, array string) int {
	s, ok := ss.Schemes[array]
	if !ok {
		return -1
	}
	for k, d := range s.Dims {
		if d.Replicated {
			continue
		}
		if ss.Grid.Extent(d.GridDim) > 1 {
			return k
		}
	}
	return -1
}
