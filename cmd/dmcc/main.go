// Command dmcc runs the full compile pipeline of the paper on one of the
// built-in Do-loop programs: component affinity graph, alignment, the
// dynamic programming algorithm over the loop sequence, the dependence
// analysis and pipelining decision, and the generated SPMD code.
//
// Usage:
//
//	dmcc -prog jacobi|sor|gauss|matmul [-m 64] [-n 8] [-greedy] [-j 4]
//	dmcc -file testdata/jacobi.f [-m 64] [-n 8]
//	dmcc -prog jacobi -exec      also execute the compiled program on the
//	                             simulated machine (random system, checked
//	                             against the sequential interpreter)
//	dmcc -prog gauss -cache      serve the compile report from the artifact
//	                             cache when the program, binding and engine
//	                             flags match a prior run (-exec always runs)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dmcc/internal/parse"

	"dmcc/internal/align"
	"dmcc/internal/artifact"
	"dmcc/internal/cli"
	"dmcc/internal/codegen"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
	"dmcc/internal/report"
)

func main() {
	prog := flag.String("prog", "jacobi", "program to compile: jacobi, sor, gauss, matmul")
	file := flag.String("file", "", "compile a Do-loop source file instead of a built-in program")
	m := flag.Int("m", 64, "problem size")
	n := flag.Int("n", 8, "total processors")
	greedy := flag.Bool("greedy", false, "use the greedy alignment heuristic instead of exact branch-and-bound")
	doExec := flag.Bool("exec", false, "execute the compiled program on the simulated machine and verify")
	jobs := flag.Int("j", 0, "cost-engine worker count (0 = all CPUs, 1 = serial)")
	engine := flag.String("engine", "fast", "cost engine: fast (closed-form counting with exact-enumeration fallback), pr1 (exact nest enumeration), prechange (exact everything, no caches)")
	useCache := flag.Bool("cache", false, "serve the compile report from the artifact cache")
	cacheDir := flag.String("cache-dir", ".dmcc-cache", "artifact cache directory")
	flag.Parse()

	// Validate flag values upfront so a typo is a usage error (exit 2),
	// not a mid-pipeline runtime failure.
	if err := applyEngine(&core.Compiler{}, *engine); err != nil {
		cli.Usage("dmcc", err)
	}
	var p *ir.Program
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err = parse.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	} else {
		switch *prog {
		case "jacobi":
			p = ir.Jacobi()
		case "sor":
			p = ir.SOR()
		case "gauss":
			p = ir.Gauss()
		case "matmul":
			p = ir.Cannon()
		default:
			cli.Usage("dmcc", fmt.Errorf("unknown program %q", *prog))
		}
	}
	if err := compileReport(p, *m, *n, *greedy, *jobs, *engine, *useCache, *cacheDir); err != nil {
		fatal(err)
	}
	if *doExec {
		if err := execute(p, *m, *n, *jobs); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	cli.Fail("dmcc", err)
}

// compileReport renders the compile report, optionally through the
// artifact cache. The report is a pure function of the program, the
// binding and the engine flags — exactly what Compiler.CacheKey encodes
// — so the cached text is served verbatim on a hit.
func compileReport(p *ir.Program, m, n int, greedy bool, jobs int, engine string, useCache bool, cacheDir string) error {
	if !useCache {
		return run(os.Stdout, p, m, n, greedy, jobs, engine)
	}
	c, err := newCompiler(p, m, n, greedy, jobs, engine)
	if err != nil {
		return err
	}
	store, err := artifact.Open(cacheDir)
	if err != nil {
		return err
	}
	store.Warnf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dmcc: "+format+"\n", args...)
	}
	key := artifact.KeyOf("kind=dmcc-report", c.CacheKey())
	payload, cached, err := store.GetOrCompute(key, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := run(&buf, p, m, n, greedy, jobs, engine); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(payload); err != nil {
		return err
	}
	state := "computed"
	if cached {
		state = "hit"
	}
	fmt.Fprintf(os.Stderr, "dmcc: cache %s: %s (dir %s)\n", state, store.Stats(), store.Dir())
	return nil
}

// newCompiler builds the compiler for a (program, binding, flags)
// configuration — shared by the report path and the cache-key
// derivation so the two can never disagree.
func newCompiler(p *ir.Program, m, n int, greedy bool, jobs int, engine string) (*core.Compiler, error) {
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	c.UseGreedyAlign = greedy
	c.Jobs = jobs
	if err := applyEngine(c, engine); err != nil {
		return nil, err
	}
	return c, nil
}

// applyEngine configures the compiler's cost engine: the production
// closed-form path, the PR 1 exact-nest-enumeration path, or the
// original exact-everything path (ablation and A/B testing).
func applyEngine(c *core.Compiler, engine string) error {
	switch engine {
	case "fast":
	case "pr1":
		c.ExactNestCount = true
	case "prechange":
		c.ExactNestCount = true
		c.ExactChangeCost = true
		c.NoCache = true
	default:
		return fmt.Errorf("unknown engine %q (want fast, pr1 or prechange)", engine)
	}
	return nil
}

// execute runs the compiled program on the simulated machine with a
// random input system and checks the result against the sequential IR
// interpreter.
func execute(p *ir.Program, m, n, jobs int) error {
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	c.Jobs = jobs
	_, ss, err := c.SegmentCost(1, len(p.Nests))
	if err != nil {
		return err
	}
	// Random inputs for every array; overwrite nothing the program
	// initializes itself.
	input := ir.NewStorage(p)
	scalars := map[string]float64{"OMEGA": 1.2}
	seed := int64(7)
	for name, arr := range p.Arrays {
		switch arr.Rank() {
		case 1:
			v := matrix.RandomVector(m, seed)
			for i := 1; i <= m; i++ {
				input.Store(name, []int{i}, v[i-1])
			}
		case 2:
			// Diagonally dominant 2-D inputs keep the solvers stable.
			md, _, _ := matrix.DiagonallyDominant(m, seed)
			for i := 1; i <= m; i++ {
				for j := 1; j <= m; j++ {
					input.Store(name, []int{i, j}, md.At(i-1, j-1))
				}
			}
		}
		seed++
	}
	iters := 3

	// Sequential reference on a copy.
	ref := ir.NewStorage(p)
	for name, elems := range input {
		for k, v := range elems {
			ref[name][k] = v
		}
	}
	if err := ir.EvalProgram(p, map[string]int{"m": m}, ref, scalars, iters); err != nil {
		return err
	}

	res, err := exec.Run(p, ss, map[string]int{"m": m}, scalars, iters, machine.DefaultConfig(), input)
	if err != nil {
		return err
	}
	maxDiff := 0.0
	for name, elems := range ref {
		for k, v := range elems {
			d := res.Values[name][k] - v
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("-- executed on the simulated machine (%s, %d iteration(s)) --\n", ss.Grid, iters)
	fmt.Printf("  naive replay: simulated makespan %.0f, %d messages, %d words\n",
		res.Stats.ParallelTime, res.Stats.Messages, res.Stats.Words)
	fmt.Printf("  lowered transport: simulated makespan %.0f, %d messages, %d words\n",
		res.Transport.ParallelTime, res.Transport.Messages, res.Transport.Words)
	fmt.Printf("  phases: %s\n", res.Phases())
	fmt.Printf("  max |parallel - sequential interpreter| = %.3g\n", maxDiff)
	if maxDiff > 1e-9 {
		return fmt.Errorf("execution diverged from the sequential interpreter by %g", maxDiff)
	}
	return nil
}

func run(w io.Writer, p *ir.Program, m, n int, greedy bool, jobs int, engine string) error {
	fmt.Fprintf(w, "=== compiling %s for %d processors (m=%d) ===\n\n", p.Name, n, m)

	wp := align.WeightParams{Bind: map[string]int{"m": m}, N: n, Tc: 1}
	s, err := report.AffinityGraph("-- whole-program component affinity graph --", p, p.Nests, wp)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, s)

	c, err := newCompiler(p, m, n, greedy, jobs, engine)
	if err != nil {
		return err
	}
	c.Engines = &core.EngineStats{}
	res, err := c.Compile()
	if err != nil {
		return err
	}
	// Telemetry goes to stderr so the report payload stays a pure
	// function of the configuration (the -cache path stores it verbatim).
	eng := c.Engines.Snapshot()
	fmt.Fprintf(os.Stderr, "dmcc: engines: analytic_hits=%d exact_fallbacks=%d\n",
		eng["analytic_hits"], eng["exact_fallbacks"])
	fmt.Fprintln(w, "-- Algorithm 1: minimum-cost order of distribution schemes --")
	for _, seg := range res.DP.Segments {
		fmt.Fprintf(w, "  loops L%d..L%d: %s, segment cost %.0f, entry redistribution %.0f\n",
			seg.Start, seg.Start+seg.Len-1, seg.Schemes, seg.M, seg.ChangeIn)
		names := make([]string, 0, len(seg.Schemes.Schemes))
		for name := range seg.Schemes.Schemes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "    %-4s %s\n", name, seg.Schemes.Schemes[name])
		}
	}
	fmt.Fprintf(w, "  loop-carried cost %.0f; total %.0f (whole-program baseline %.0f)\n\n",
		res.DP.LoopCarried, res.DP.MinimumCost, res.WholeProgramCost)

	fmt.Fprintln(w, "-- dependence analysis and pipelining decisions --")
	var plans []codegen.NestPlan
	byNest := map[string]dep.PipelineDecision{}
	for _, d := range res.Pipelining {
		byNest[d.Mapping.Nest] = d
		fmt.Fprintf(w, "  nest %s: mapping %s, pipelinable=%v, travelling %v\n",
			d.Mapping.Nest, d.Mapping, d.CanPipeline, d.TravellingTokens)
	}
	cyclic := false
	for _, seg := range res.DP.Segments {
		if seg.Schemes.Cyclic {
			cyclic = true
		}
	}
	allPipelinable := true
	for _, nest := range p.Nests {
		d, ok := byNest[nest.Label]
		if !ok || !d.CanPipeline {
			allPipelinable = false
			continue
		}
		plans = append(plans, codegen.NestPlan{Nest: nest, Decision: d, Cyclic: cyclic})
	}
	fmt.Fprintln(w)

	if allPipelinable && len(plans) == len(p.Nests) {
		code, err := codegen.Program(p, plans)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- generated SPMD program --\n%s", code)
	} else {
		fmt.Fprintln(w, "-- codegen skipped: not every nest is pipelinable under the chosen mapping --")
	}
	return nil
}
