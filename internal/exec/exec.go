// Package exec is the straightforward compiler backend: it executes any
// IR program directly on the simulated machine under a set of
// distribution schemes, using the owner-computes rule, per-element
// Transfers for remote operands, and per-element Reductions for
// travelling accumulators.
//
// This is precisely the "naive" compilation the paper warns about — "A
// naive compiler may generate a lot of OneToManyMulticast operations ...
// It will certainly incur excessive communication overhead" (Section 6)
// — made executable. The naive COST MODEL is preserved exactly: Run
// reports the simulated clocks, message counts and trace of an engine
// that walks the full iteration space in lockstep on every processor
// and ships every remote operand as its own one-word message
// (RunExact, kept as the oracle). The TRANSPORT, however, is batched:
// an inspector pass (schedule.go) walks each nest once per (nest,
// env-binding), precomputes per processor pair the ordered element list
// crossing the wire, and the executor (executor.go) moves each pair's
// epoch traffic as one vectored Send. That makes Run deadlock-free at
// ChanCap=1 by construction — the old minExecChanCap floor that pinned
// every channel at 4096 words is gone, and Config.ChanCap is a genuine
// backpressure knob again — while Result.Values and Result.Stats stay
// byte-identical to RunExact.
//
// Reductions are handled the way a dataflow-correct naive backend must:
// partial sums accumulate at the owners of the anchoring operand and are
// combined at the accumulator's owner the moment any later statement
// reads it (or at nest end), which preserves even SOR's interleaved
// update semantics.
package exec

import (
	"fmt"
	"time"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// Result is the outcome of an execution.
type Result struct {
	// Values is the final global state of every array.
	Values ir.Storage
	// Stats is the naive cost model's outcome: the simulated clocks,
	// flop/message/word counts (and trace events) of the per-element
	// lockstep engine, identical between Run and RunExact.
	Stats machine.Stats
	// Transport is what actually crossed the simulated wire: for Run,
	// the batched engine's vectored exchanges (far fewer messages,
	// never more words — the pruned reduction fan-out can drop words a
	// non-reader owner would have received — MaxMsgWords up to a full
	// epoch block); for RunExact it equals Stats.
	Transport machine.Stats
	// SimWall is the wall-clock time of the engine-dependent phase —
	// constructing the transport machine and running the schedules on it
	// — excluding schedule building, stats replay and result assembly,
	// which are identical across engines. The scale sweep reports it as
	// the engines' like-for-like wall-clock comparison.
	SimWall time.Duration
	// InspectWall is the wall-clock time of the inspector (building the
	// schedule) and ReplayWall that of the naive-model stats replay; with
	// SimWall they split a run into its three phases. Like SimWall they
	// vary run to run and stay out of every deterministic output.
	InspectWall time.Duration
	ReplayWall  time.Duration
}

// Phases renders the run's wall-clock split — inspector, machine run,
// stats replay — for the dmcc/dmrun -exec "phases:" line.
func (r Result) Phases() string {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return fmt.Sprintf("inspect %.1f ms, sim %.1f ms, replay %.1f ms", ms(r.InspectWall), ms(r.SimWall), ms(r.ReplayWall))
}

// Engine selects the runtime that moves the batched transport.
type Engine int

const (
	// EngineAuto picks the discrete-event runtime unless a
	// TransportTracer is attached (trace consumers keep the goroutine
	// runtime, whose live interleaving is what the traces depict).
	EngineAuto Engine = iota
	// EngineEvents is the discrete-event runtime (machine.EventMachine):
	// sparse per-pair queues, one runnable processor at a time, feasible
	// at N in the thousands. Stats and values are bit-identical to the
	// goroutine runtime.
	EngineEvents
	// EngineGoroutines is the live goroutine runtime (machine.Machine),
	// kept as the semantics oracle exactly like RunExact.
	EngineGoroutines
)

func (e Engine) String() string {
	switch e {
	case EngineEvents:
		return "events"
	case EngineGoroutines:
		return "goroutines"
	}
	return "auto"
}

// Redist selects the transport lowering for batched operand ships —
// the third schedule kind next to the vectored pair exchange and the
// two-phase / ring reduction exchange.
type Redist int

const (
	// RedistCollective, the zero value, lowers each epoch's operand
	// traffic to a composed collective plan: per-pair duplicate ships
	// collapse to one copy (value-safe — within an epoch no
	// batched-shipped element is written), elements bound for the same
	// destination set travel a binomial multicast tree instead of a
	// star, and the remaining single-destination traffic stays a
	// vectored pair exchange. Values and the naive Stats are identical
	// to RedistP2P; only Result.Transport changes (fewer words and
	// messages).
	RedistCollective Redist = iota
	// RedistP2P keeps the original per-pair vectored exchange: every
	// ship travels point-to-point, duplicates included.
	RedistP2P
)

func (r Redist) String() string {
	if r == RedistP2P {
		return "p2p"
	}
	return "collective"
}

// ParseRedist maps a -redist flag value onto a Redist: "collective" (or
// its synonym "auto") and "p2p".
func ParseRedist(name string) (Redist, error) {
	switch name {
	case "collective", "auto":
		return RedistCollective, nil
	case "p2p":
		return RedistP2P, nil
	}
	return RedistCollective, fmt.Errorf("unknown -redist %q (want collective, auto or p2p)", name)
}

// Options tune the batched engine's transport. The zero value is the
// default configuration: pipelined finalizes on, no transport tracer,
// automatic engine choice.
type Options struct {
	// NoPipeline disables the vectored two-phase / ring reduction
	// exchange, reverting every finalize to a per-element star (the
	// pre-pipelining transport). Values and the naive Stats are
	// identical either way; only Result.Transport changes.
	NoPipeline bool
	// TransportTracer, when non-nil, receives the batched transport's
	// own trace events — vectored sends, waits, and the
	// gather/fan-out/ring phase markers (machine.EvGather, EvFanout,
	// EvRing). This is distinct from cfg.Tracer, which traces the naive
	// per-element model that Stats describes.
	TransportTracer machine.Tracer
	// Engine picks the transport runtime; EngineAuto (the zero value)
	// selects events unless TransportTracer is set.
	Engine Engine
	// Redist picks the operand-ship lowering; the zero value is the
	// collective redistribution schedule.
	Redist Redist
}

// validate performs the shared pre-flight checks of both engines.
func validate(p *ir.Program, ss *core.SchemeSet) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, nest := range p.Nests {
		for _, st := range nest.Stmts {
			if st.RHS == nil && st.Flops > 0 {
				return fmt.Errorf("exec: statement at line %d has no executable RHS", st.Line)
			}
		}
	}
	for name := range p.Arrays {
		if _, ok := ss.Schemes[name]; !ok {
			return fmt.Errorf("exec: no scheme for array %s", name)
		}
	}
	return nil
}

// Run executes the program under the scheme set for the given number of
// outer iterations (ignored for non-iterative programs). input provides
// the initial array contents; scalars binds free scalar names.
//
// Communication is batched per (processor pair, epoch) via the
// inspector/executor schedule of schedule.go; Run works at any
// ChanCap >= 1. The reported Stats (and trace events, if cfg.Tracer is
// set) are the naive per-element model's, bit-identical to RunExact;
// the batched transport's own statistics are returned as
// Result.Transport.
func Run(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {
	return RunOpts(p, ss, bind, scalars, iters, cfg, input, Options{})
}

// RunOpts is Run with transport options.
func RunOpts(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage, opt Options) (Result, error) {

	if err := validate(p, ss); err != nil {
		return Result{}, err
	}
	if !p.Iterative {
		iters = 1
	}

	inspectStart := time.Now()
	sched := buildSchedule(p, ss, bind, !opt.NoPipeline, opt.Redist != RedistP2P)
	inspectWall := time.Since(inspectStart)
	nprocs := sched.nprocs

	// Value pass: the batched transport computes every array element.
	// cfg.Tracer is replaced by the (usually nil) transport tracer —
	// the naive-model replay below feeds cfg.Tracer, so its events
	// describe the per-element schedule the Stats describe.
	vcfg := cfg
	vcfg.Tracer = opt.TransportTracer
	stores := make([][][]float64, nprocs)
	marks := make([][][]bool, nprocs)
	loads := buildLoads(sched, input)
	body := func(proc machine.Port) {
		x := newValExec(sched, proc, scalars)
		x.installInput(loads)
		for it := 0; it < iters; it++ {
			for _, ns := range sched.nests {
				x.runNest(ns)
			}
		}
		stores[x.me] = x.store
		marks[x.me] = x.has
	}
	engine := opt.Engine
	if engine == EngineAuto {
		if opt.TransportTracer != nil {
			engine = EngineGoroutines
		} else {
			engine = EngineEvents
		}
	}
	var transport machine.Stats
	simStart := time.Now()
	if engine == EngineGoroutines {
		mach, err := machine.New(ss.Grid, vcfg)
		if err != nil {
			return Result{}, err
		}
		if transport, err = mach.Run(func(proc *machine.Proc) { body(proc) }); err != nil {
			return Result{}, err
		}
	} else {
		mach, err := machine.NewEvent(ss.Grid, vcfg)
		if err != nil {
			return Result{}, err
		}
		if transport, err = mach.Run(func(proc *machine.EventProc) { body(proc) }); err != nil {
			return Result{}, err
		}
	}
	simWall := time.Since(simStart)

	// Timing pass: replay the per-element engine's event timeline
	// single-threadedly. The naive cost model is value-independent, so
	// this reproduces RunExact's Stats exactly.
	replayStart := time.Now()
	stats := sched.replayStats(iters, cfg)
	replayWall := time.Since(replayStart)

	// Assemble the global state: each element from its first owner.
	// Ranks are scanned outermost in ascending order and an element is
	// filled only once, which is the same first-owner rule as the old
	// per-element rank scan but skips the (many, at large N) processors
	// whose lazily-allocated marks for an array were never touched.
	out := ir.NewStorage(p)
	filled := make([][]bool, len(sched.arrays))
	for a, am := range sched.arrays {
		filled[a] = make([]bool, am.size)
	}
	for r := 0; r < nprocs; r++ {
		for a, am := range sched.arrays {
			mk := marks[r][a]
			if mk == nil {
				continue
			}
			elems := out[am.name]
			for off, ok := range mk {
				if ok && !filled[a][off] {
					filled[a][off] = true
					_, idx := sched.decode(mkElem(a, off))
					elems[subKey(idx)] = stores[r][a][off]
				}
			}
		}
	}
	return Result{Values: out, Stats: stats, Transport: transport,
		SimWall: simWall, InspectWall: inspectWall, ReplayWall: replayWall}, nil
}
