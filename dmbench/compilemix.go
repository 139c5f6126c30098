package main

// compile-mix: closed loop, one caller. One op is what dmcc does before
// it prints: parse (source points), a fresh production compiler
// (cost.Unit(), Jobs 0), Compile, and codegen when every nest can be
// pipelined.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dmcc/internal/align"
	"dmcc/internal/codegen"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/ir"
	"dmcc/internal/parse"
)

// compileProgs are the programs of the draw: the paper's kernels, the
// synthetic s-nest programs, and three kernels compiled from source.
var compileProgs = []struct {
	name string
	mk   func() *ir.Program
	file string // Do-loop source under the repository root
}{
	{"jacobi", ir.Jacobi, ""},
	{"sor", ir.SOR, ""},
	{"gauss", ir.Gauss, ""},
	{"matmul", ir.Cannon, ""},
	{"stencil", ir.Stencil, ""},
	{"synth4", func() *ir.Program { return ir.Synthetic(4) }, ""},
	{"synth8", func() *ir.Program { return ir.Synthetic(8) }, ""},
	{"synth16", func() *ir.Program { return ir.Synthetic(16) }, ""},
	{"jacobi.f", nil, "testdata/jacobi.f"},
	{"sor.f", nil, "testdata/sor.f"},
	{"gauss.f", nil, "testdata/gauss.f"},
}

type compilePoint struct {
	prog string
	mk   func() *ir.Program
	src  string // source text; "" for built-in programs
	m, n int
}

func (pt compilePoint) String() string {
	return fmt.Sprintf("%s m=%d N=%d", pt.prog, pt.m, pt.n)
}

func (pt compilePoint) program() (*ir.Program, error) {
	if pt.src != "" {
		return parse.Parse(pt.src)
	}
	return pt.mk(), nil
}

// compilePoints draws the grid: every program at every N, each with a
// seeded m in 57..64. Compile time is steep in N but not flat in m
// (gauss at N=64 takes 4x longer at m=128 than at m=32), and it jumps
// where the block size ceil(m/N) changes: synth16 at N=64 compiles in
// 1.65 s at m=60 and 1.09 s at m=66. In 57..64 the block size is the
// same at every N from 8 up, so the seed moves the inputs without
// moving the cost profile of the draw.
func compilePoints(cfg config) ([]compilePoint, error) {
	ns, m0, band := []int{4, 8, 16, 32, 64}, 57, 8
	if cfg.short {
		ns, m0, band = []int{4}, 16, 1
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var pts []compilePoint
	for _, pr := range compileProgs {
		src := ""
		if pr.file != "" {
			b, err := os.ReadFile(filepath.Join(cfg.root, pr.file))
			if err != nil {
				return nil, err
			}
			src = string(b)
		}
		for _, n := range ns {
			pts = append(pts, compilePoint{prog: pr.name, mk: pr.mk, src: src, m: m0 + rng.Intn(band), n: n})
		}
	}
	return pts, nil
}

// compileOp is one untraced op.
func compileOp(pt compilePoint) (*core.CompileResult, error) {
	p, err := pt.program()
	if err != nil {
		return nil, err
	}
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": pt.m}, pt.n)
	res, err := c.Compile()
	if err != nil {
		return nil, err
	}
	if plans, ok := pipelinePlans(p, res); ok {
		if _, err := codegen.Program(p, plans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pipelinePlans returns the codegen plans when every nest can be
// pipelined, as dmcc decides whether to print SPMD code.
func pipelinePlans(p *ir.Program, res *core.CompileResult) ([]codegen.NestPlan, bool) {
	byNest := map[string]dep.PipelineDecision{}
	for _, d := range res.Pipelining {
		byNest[d.Mapping.Nest] = d
	}
	cyclic := false
	for _, seg := range res.DP.Segments {
		cyclic = cyclic || seg.Schemes.Cyclic
	}
	plans := make([]codegen.NestPlan, 0, len(p.Nests))
	for _, nest := range p.Nests {
		d, ok := byNest[nest.Label]
		if !ok || !d.CanPipeline {
			return nil, false
		}
		plans = append(plans, codegen.NestPlan{Nest: nest, Decision: d, Cyclic: cyclic})
	}
	return plans, true
}

// checkPlan checks one compile: the segments tile loops 1..s and the
// DP's plan is no dearer than the whole-program scheme.
func checkPlan(res *core.CompileResult, s int) error {
	next := 1
	for _, seg := range res.DP.Segments {
		if seg.Start != next || seg.Len < 1 {
			return fmt.Errorf("segment L%d+%d does not continue at L%d", seg.Start, seg.Len, next)
		}
		next += seg.Len
	}
	if next != s+1 {
		return fmt.Errorf("segments end at L%d, want L%d", next-1, s)
	}
	if !(res.DP.MinimumCost <= res.WholeProgramCost) {
		return fmt.Errorf("DP cost %g above the whole-program cost %g", res.DP.MinimumCost, res.WholeProgramCost)
	}
	return nil
}

func segmentBounds(res *core.CompileResult) string {
	s := ""
	for _, seg := range res.DP.Segments {
		s += fmt.Sprintf("[%d,%d]", seg.Start, seg.Len)
	}
	return s
}

// tracingCoster times every cost query Algorithm 1 makes.
type tracingCoster struct {
	c    *core.Compiler
	rec  *recorder
	sets []*core.SchemeSet
}

func (t *tracingCoster) SegmentCost(i, j int) (float64, *core.SchemeSet, error) {
	id := t.rec.begin("core.segment_cost")
	m, ss, err := t.c.SegmentCost(i, j)
	t.rec.end(id)
	t.sets = append(t.sets, ss)
	return m, ss, err
}

func (t *tracingCoster) ChangeCost(from, to *core.SchemeSet) (float64, error) {
	id := t.rec.begin("core.change_cost")
	v, err := t.c.ChangeCost(from, to)
	t.rec.end(id)
	return v, err
}

func (t *tracingCoster) LoopCarriedCost(final *core.SchemeSet) (float64, error) {
	id := t.rec.begin("core.loop_carried")
	v, err := t.c.LoopCarriedCost(final)
	t.rec.end(id)
	return v, err
}

// tracedCompile is the op with a span around every call into a layer.
// It drives core.RunDP through tracingCoster over a serial compiler
// (Jobs 1, so each cost query is computed inside its own span), then
// does what Compile does after the DP. Alignment, which the compiler
// runs inside SegmentCost, is timed by aligning every segment i..j with
// the compiler's weights beforehand.
// It returns the number of distinct scheme sets the DP saw; eng counts
// which engine priced each nest.
func tracedCompile(rec *recorder, pt compilePoint, eng *core.EngineStats) (*core.CompileResult, int, error) {
	op := rec.beginOp()
	res, tc, err := tracedCompileOp(rec, pt, eng)
	rec.end(op)
	if err != nil {
		return nil, 0, err
	}
	sigs := map[string]bool{}
	for _, ss := range tc.sets {
		if ss != nil {
			sigs[ss.Signature()] = true
		}
	}
	return res, len(sigs), nil
}

func tracedCompileOp(rec *recorder, pt compilePoint, eng *core.EngineStats) (*core.CompileResult, *tracingCoster, error) {
	var p *ir.Program
	var err error
	if pt.src != "" {
		err = rec.do("parse", func() (err error) { p, err = parse.Parse(pt.src); return err })
	} else {
		p = pt.mk()
	}
	if err != nil {
		return nil, nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": pt.m}, pt.n)
	c.Jobs = 1
	c.Engines = eng
	s := len(p.Nests)
	for j := 1; j <= s; j++ {
		for i := 1; i+j-1 <= s; i++ {
			err := rec.do("align", func() error {
				g, err := align.BuildGraph(p, p.Nests[i-1:i-1+j], c.Weights)
				if err != nil {
					return err
				}
				_, err = align.ExactAlign(g, 2)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	tc := &tracingCoster{c: c, rec: rec}
	var dp *core.DPResult
	if err := rec.do("core.dp", func() (err error) { dp, err = core.RunDP(s, tc, p.Iterative); return err }); err != nil {
		return nil, nil, err
	}
	// The whole-program baseline and its loop-carried term, as Compile.
	whole, wholeSS, err := tc.SegmentCost(1, s)
	if err != nil {
		return nil, nil, err
	}
	if p.Iterative {
		lc, err := tc.LoopCarriedCost(wholeSS)
		if err != nil {
			return nil, nil, err
		}
		whole += lc
	}
	res := &core.CompileResult{DP: dp, WholeProgramCost: whole}
	rec.do("dep.pipelining", func() error {
		res.Pipelining = pipelining(p, dp)
		return nil
	})
	if plans, ok := pipelinePlans(p, res); ok {
		if err := rec.do("codegen", func() error { _, err := codegen.Program(p, plans); return err }); err != nil {
			return nil, nil, err
		}
	}
	return res, tc, nil
}

// pipelining is Compile's per-nest dependence analysis under each
// segment's schemes.
func pipelining(p *ir.Program, dp *core.DPResult) []dep.PipelineDecision {
	var out []dep.PipelineDecision
	for _, seg := range dp.Segments {
		distDim := map[string]int{}
		for name := range p.Arrays {
			distDim[name] = distributedDim(seg.Schemes, name)
		}
		for t := seg.Start - 1; t < seg.Start-1+seg.Len; t++ {
			nest := p.Nests[t]
			mu, err := dep.DeriveMapping(p, nest, distDim)
			if err != nil {
				continue // no distributed LHS: nothing to pipeline
			}
			out = append(out, dep.DecidePipelining(p, nest, mu))
		}
	}
	return out
}

// distributedDim is the first array dimension on a grid dimension of
// more than one processor, or -1.
func distributedDim(ss *core.SchemeSet, array string) int {
	s, ok := ss.Schemes[array]
	if !ok {
		return -1
	}
	for k, d := range s.Dims {
		if !d.Replicated && ss.Grid.Extent(d.GridDim) > 1 {
			return k
		}
	}
	return -1
}

func compileMix(cfg config) (*outcome, error) {
	// Set-up draws the points, loads the sources and warms every program
	// with one compile at its first (smallest-N) point.
	pts, setup, err := medianSetup(func() ([]compilePoint, error) {
		pts, err := compilePoints(cfg)
		if err != nil {
			return nil, err
		}
		for k, pt := range pts {
			if k == 0 || pts[k-1].prog != pt.prog {
				if _, err := compileOp(pt); err != nil {
					return nil, fmt.Errorf("warming %s: %w", pt, err)
				}
			}
		}
		return pts, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	costs := make([]float64, len(pts)) // first MinimumCost of each point
	bounds := make([]string, len(pts))
	seen := make([]bool, len(pts))
	record := func(k int, res *core.CompileResult, err error) {
		if err != nil {
			o.check(false, "compile %s: %v", pts[k], err)
			return
		}
		if err := checkPlan(res, len(res.DP.T)-1); err != nil {
			o.check(false, "compile %s: %v", pts[k], err)
			return
		}
		if !seen[k] {
			seen[k], costs[k], bounds[k] = true, res.DP.MinimumCost, segmentBounds(res)
		}
		o.check(res.DP.MinimumCost == costs[k] && segmentBounds(res) == bounds[k],
			"compile %s: repeat gave cost %g %s, first %g %s", pts[k], res.DP.MinimumCost, segmentBounds(res), costs[k], bounds[k])
	}
	times := make([][]float64, len(pts))
	order := func(pass int) []int {
		return rand.New(rand.NewSource(cfg.seed*7919 + int64(pass))).Perm(len(pts))
	}

	if !cfg.trace {
		passes(cfg.seconds, func(pass int) {
			for _, k := range order(pass) {
				runtime.GC() // every op starts from the same heap, outside the timing
				t0 := time.Now()
				res, err := compileOp(pts[k])
				times[k] = append(times[k], ms(time.Since(t0)))
				record(k, res, err)
			}
		})
		o.set("setup_s", setup)
		setOpTimes(o, times)
		exactSample(cfg, pts, costs, bounds, o)
		return o, nil
	}

	// Traced run: at every point an untraced op, then a traced one.
	rec := newRecorder(time.Now())
	var untraced, planCosts, ratios []float64
	var eng core.EngineStats
	schemeSets, ops := 0, 0
	passes(cfg.seconds, func(pass int) {
		for _, k := range order(pass) {
			runtime.GC()
			t0 := time.Now()
			res, err := compileOp(pts[k])
			untraced = append(untraced, ms(time.Since(t0)))
			record(k, res, err)
			runtime.GC()
			tres, sets, err := tracedCompile(rec, pts[k], &eng)
			ops++
			if err != nil {
				o.check(false, "traced compile %s: %v", pts[k], err)
				continue
			}
			o.check(tres.DP.MinimumCost == costs[k] && segmentBounds(tres) == bounds[k],
				"traced compile %s: cost %g %s, untraced %g %s", pts[k], tres.DP.MinimumCost, segmentBounds(tres), costs[k], bounds[k])
			if err := checkPlan(tres, len(tres.DP.T)-1); err != nil {
				o.check(false, "traced compile %s: %v", pts[k], err)
			}
			schemeSets += sets
			planCosts = append(planCosts, tres.DP.MinimumCost)
			ratios = append(ratios, tres.DP.MinimumCost/tres.WholeProgramCost)
		}
	})
	lt := reduce(rec)
	o.check(lt.mismatches == 0, "%d traced ops whose span self times do not add up to the op", lt.mismatches)
	perOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	o.set("parse.us", 1e3*perOp(lt.self["parse"]))
	o.set("align.ms", perOp(lt.self["align"]))
	o.set("align.calls", float64(lt.calls["align"])/float64(ops))
	for _, l := range []string{"core.segment_cost", "core.change_cost", "core.loop_carried"} {
		o.set(l+".ms", perOp(lt.self[l]))
		o.set(l+".calls", float64(lt.calls[l])/float64(ops))
	}
	for name, n := range eng.Snapshot() {
		o.set("cost."+name, float64(n)/float64(ops))
	}
	o.set("core.dp.self_ms", perOp(lt.self["core.dp"]))
	o.set("core.scheme_sets", float64(schemeSets)/float64(ops))
	o.set("core.plan_cost_geomean", geomean(planCosts))
	o.set("core.dp_over_whole", geomean(ratios))
	o.set("dep.pipelining.ms", perOp(lt.self["dep.pipelining"]))
	o.set("codegen.ms", perOp(lt.self["codegen"]))
	o.set("trace.overhead_pct", overheadPct(lt.opMs(), untraced))
	if err := writeSpans(traceFile(cfg, "compile-mix"), rec); err != nil {
		return nil, err
	}
	return o, nil
}

// exactSample re-compiles a seeded sample of points with the exact
// counting engine and checks that the plan's cost and segments agree.
// The sample is drawn from the points with N <= 16: the exact engine's
// cost grows much faster in N than the fast engine's, and one synth16
// point at N=64 alone would outlast the run.
func exactSample(cfg config, pts []compilePoint, costs []float64, bounds []string, o *outcome) {
	var pool []int
	for k, pt := range pts {
		if pt.n <= 16 {
			pool = append(pool, k)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed + 104729))
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	for _, k := range pool[:min(3, len(pool))] {
		pt := pts[k]
		p, err := pt.program()
		if err != nil {
			o.check(false, "exact %s: %v", pt, err)
			continue
		}
		c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": pt.m}, pt.n)
		c.ExactNestCount = true
		res, err := c.Compile()
		if err != nil {
			o.check(false, "exact %s: %v", pt, err)
			continue
		}
		o.check(res.DP.MinimumCost == costs[k] && segmentBounds(res) == bounds[k],
			"exact %s: cost %g %s, fast engine %g %s", pt, res.DP.MinimumCost, segmentBounds(res), costs[k], bounds[k])
	}
}
