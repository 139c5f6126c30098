// Command dmrun executes a kernel on the simulated distributed memory
// machine, verifies the result against the sequential reference, and
// prints the machine statistics.
//
// Usage:
//
//	dmrun -kernel jacobi      -m 64 -n 8 -n2 1 -iters 10
//	dmrun -kernel sor         -m 64 -n 8 -iters 10 [-naive]
//	dmrun -kernel gauss       -m 64 -n 8 [-broadcast]
//	dmrun -kernel cannon      -m 64 -n 4            (n = grid side q)
//	dmrun -kernel jacobi -exec -m 64 -n 8 -iters 10  (IR program through the
//	                                                  naive exec backend with
//	                                                  compiler-chosen schemes)
//	flags: -overlap (comm/comp overlap), -async (asynchronous collectives),
//	       -trace (per-processor time breakdown + Gantt chart),
//	       -chancap (exec: per-link channel capacity in messages),
//	       -engine=auto|events|goroutines (exec: transport runtime; auto
//	                        picks the discrete-event engine unless -trace
//	                        needs the live goroutine interleaving),
//	       -pipeline=false (exec: per-element finalizes instead of the
//	                        vectored two-phase / ring reduction exchange),
//	       -redist=p2p|collective|auto (exec: scheme-change lowering; auto
//	                        picks the composed collective schedules, p2p
//	                        reverts to per-pair exchanges),
//	       -cpuprofile / -memprofile (write pprof profiles)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"dmcc/internal/cli"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
	"dmcc/internal/trace"
)

func main() {
	kernel := flag.String("kernel", "jacobi", "jacobi, sor, gauss, cannon")
	m := flag.Int("m", 64, "problem size")
	n := flag.Int("n", 8, "processors (first grid dimension; cannon: grid side)")
	n2 := flag.Int("n2", 1, "second grid dimension (jacobi)")
	iters := flag.Int("iters", 10, "iterations (jacobi, sor)")
	naive := flag.Bool("naive", false, "SOR: reduction-per-step instead of pipeline")
	broadcast := flag.Bool("broadcast", false, "gauss: multicast instead of pipeline")
	execBackend := flag.Bool("exec", false, "run the IR program through the exec backend (jacobi, sor, gauss)")
	engineName := flag.String("engine", "auto", "exec backend transport runtime: auto, events, goroutines")
	chanCap := flag.Int("chancap", 0, "exec backend: per-link channel capacity in messages (0 = default)")
	overlap := flag.Bool("overlap", false, "overlap communication with computation")
	async := flag.Bool("async", false, "asynchronous collectives instead of the paper's synchronous model")
	doTrace := flag.Bool("trace", false, "print per-processor time breakdown and Gantt chart")
	seed := flag.Int64("seed", 1, "system generator seed")
	pipeline := flag.Bool("pipeline", true, "exec backend: vectored two-phase / ring reduction exchange (false = per-element finalizes)")
	redistName := flag.String("redist", "collective", "exec backend scheme-change lowering: collective (auto is a synonym) or p2p")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Validate flag values upfront: a typo is a usage error (exit 2),
	// not a runtime failure (exit 1).
	switch *kernel {
	case "jacobi", "sor", "gauss", "cannon":
	default:
		cli.Usage("dmrun", fmt.Errorf("unknown kernel %q (want jacobi, sor, gauss or cannon)", *kernel))
	}
	engine, err := parseEngine(*engineName)
	if err != nil {
		cli.Usage("dmrun", err)
	}
	redist, err := exec.ParseRedist(*redistName)
	if err != nil {
		cli.Usage("dmrun", err)
	}

	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		cli.Fail("dmrun", err)
	}
	defer stopProf()

	cfg := machine.DefaultConfig()
	cfg.Overlap = *overlap
	if *async {
		cfg.SyncCollectives = false
	}
	var col *trace.Collector
	if *doTrace {
		col = trace.New()
		cfg.Tracer = col
	}

	if *chanCap > 0 {
		cfg.ChanCap = *chanCap
	}

	if *execBackend {
		err = runExec(*kernel, cfg, *m, *n, *iters, *seed, !*pipeline, engine, redist)
	} else {
		err = run(*kernel, cfg, *m, *n, *n2, *iters, *naive, *broadcast, *seed)
	}
	if err != nil {
		stopProf()
		cli.Fail("dmrun", err)
	}
	if col != nil {
		events := col.Events()
		nprocs := *n * *n2
		if *kernel == "cannon" {
			nprocs = *n * *n
		}
		if *kernel == "sor" || *kernel == "gauss" || *execBackend {
			nprocs = *n
		}
		makespan := 0.0
		for _, e := range events {
			if e.End > makespan {
				makespan = e.End
			}
		}
		sum := trace.Summarize(events, nprocs, makespan)
		fmt.Print(sum)
		fmt.Print(trace.Gantt(events, nprocs, makespan, 100))
	}
}

func run(kernel string, cfg machine.Config, m, n, n2, iters int, naive, broadcast bool, seed int64) error {
	switch kernel {
	case "jacobi":
		a, b, _ := matrix.DiagonallyDominant(m, seed)
		x0 := make([]float64, m)
		res, err := kernels.JacobiGrid(cfg, a, b, x0, iters, n, n2)
		if err != nil {
			return err
		}
		ref := matrix.JacobiSeq(a, b, x0, iters)
		report(fmt.Sprintf("jacobi %dx%d grid, %d iters", n, n2, iters), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "sor":
		a, b, _ := matrix.DiagonallyDominant(m, seed)
		x0 := make([]float64, m)
		var res kernels.Result
		var err error
		variant := "pipelined"
		if naive {
			variant = "naive"
			res, err = kernels.SORNaive(cfg, a, b, x0, 1.2, iters, n)
		} else {
			res, err = kernels.SORPipelined(cfg, a, b, x0, 1.2, iters, n)
		}
		if err != nil {
			return err
		}
		ref := matrix.SORSeq(a, b, x0, 1.2, iters)
		report(fmt.Sprintf("sor (%s) ring of %d, %d sweeps", variant, n, iters), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "gauss":
		a, b, _ := matrix.DiagonallyDominant(m, seed)
		var res kernels.Result
		var err error
		variant := "pipelined"
		if broadcast {
			variant = "broadcast"
			res, err = kernels.GaussBroadcast(cfg, a, b, n)
		} else {
			res, err = kernels.GaussPipelined(cfg, a, b, n)
		}
		if err != nil {
			return err
		}
		ref := matrix.GaussSeq(a, b)
		report(fmt.Sprintf("gauss (%s) ring of %d", variant, n), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "cannon":
		bm := matrix.RandomDense(m, m, seed)
		cm := matrix.RandomDense(m, m, seed+1)
		got, st, err := kernels.Cannon(cfg, bm, cm, n)
		if err != nil {
			return err
		}
		ref := bm.Mul(cm)
		report(fmt.Sprintf("cannon %dx%d grid", n, n), st, matrix.MaxAbsDiff(got.Data, ref.Data))
	default:
		return fmt.Errorf("unknown kernel %q", kernel)
	}
	return nil
}

// runExec compiles the kernel's IR program (whole-program schemes via
// Algorithm 1's segment cost), executes it on the batched exec backend,
// verifies against the sequential reference, and reports both the naive
// cost model's statistics and what the vectored transport actually moved.
// parseEngine maps the -engine flag value onto an exec.Engine.
func parseEngine(name string) (exec.Engine, error) {
	switch name {
	case "auto":
		return exec.EngineAuto, nil
	case "events":
		return exec.EngineEvents, nil
	case "goroutines":
		return exec.EngineGoroutines, nil
	}
	return exec.EngineAuto, fmt.Errorf("unknown -engine %q (want auto, events or goroutines)", name)
}

func runExec(kernel string, cfg machine.Config, m, n, iters int, seed int64, noPipe bool, engine exec.Engine, redist exec.Redist) error {
	a, b, _ := matrix.DiagonallyDominant(m, seed)
	var p *ir.Program
	var scalars map[string]float64
	var x0, ref []float64
	switch kernel {
	case "jacobi":
		p = ir.Jacobi()
		x0 = make([]float64, m)
		ref = matrix.JacobiSeq(a, b, x0, iters)
	case "sor":
		p = ir.SOR()
		scalars = map[string]float64{"OMEGA": 1.2}
		x0 = make([]float64, m)
		ref = matrix.SORSeq(a, b, x0, 1.2, iters)
	case "gauss":
		p = ir.Gauss()
		iters = 1
		ref = matrix.GaussSeq(a, b)
	default:
		return fmt.Errorf("-exec supports jacobi, sor and gauss (got %q)", kernel)
	}
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	_, ss, err := c.SegmentCost(1, len(p.Nests))
	if err != nil {
		return err
	}
	input := ir.NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			input.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		input.Store("B", []int{i}, b[i-1])
		if x0 != nil {
			input.Store("X", []int{i}, x0[i-1])
		}
	}
	res, err := exec.RunOpts(p, ss, map[string]int{"m": m}, scalars, iters, cfg, input,
		exec.Options{NoPipeline: noPipe, Engine: engine, Redist: redist})
	if err != nil {
		return err
	}
	x := make([]float64, m)
	for i := 1; i <= m; i++ {
		x[i-1] = res.Values.Load(ir.R("X", ir.Const(i)), []int{i})
	}
	// Stats is the naive per-element replay; Transport is what the
	// lowered schedules actually moved.
	st, tr := res.Stats, res.Transport
	fmt.Printf("%s (exec backend, %s redistribution) on %d processors, %d iters\n", kernel, redist, n, iters)
	fmt.Printf("  naive replay: simulated makespan %.0f, %d messages, %d words\n", st.ParallelTime, st.Messages, st.Words)
	fmt.Printf("  lowered transport: simulated makespan %.0f, %d messages, %d words, largest message %d words\n",
		tr.ParallelTime, tr.Messages, tr.Words, tr.MaxMsgWords)
	fmt.Printf("  busiest pair: %d messages, %d words\n", tr.MaxPairMessages, tr.MaxPairWords)
	fmt.Printf("  phases: %s\n", res.Phases())
	fmt.Printf("  flops: %d total, %d on the most loaded processor\n", st.Flops, st.MaxFlops())
	fmt.Printf("  max |diff| vs sequential reference: %.3g\n", matrix.MaxAbsDiff(x, ref))
	return nil
}

// startProfiles starts CPU profiling (when cpu != "") and returns the
// function that stops it and writes the heap profile (when mem != "").
func startProfiles(cpu, mem string) (func(), error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}, nil
}

func report(title string, st machine.Stats, diff float64) {
	fmt.Printf("%s\n", title)
	fmt.Printf("  simulated makespan: %.0f\n", st.ParallelTime)
	fmt.Printf("  flops: %d total, %d on the most loaded processor\n", st.Flops, st.MaxFlops())
	fmt.Printf("  communication: %d messages, %d words\n", st.Messages, st.Words)
	fmt.Printf("  max |diff| vs sequential reference: %.3g\n", diff)
}
