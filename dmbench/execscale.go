package main

// exec-scale: closed loop, one caller. Set-up compiles each point's
// whole-program scheme set the way dmcc -exec and the exec sweeps do
// (SegmentCost(1, s)) and computes the sequential reference with
// ir.EvalProgram. One op is exec.RunOpts with default Options (event
// runtime, collective redistribution) on seeded, diagonally dominant
// inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// execTol is dmcc -exec's bound on |parallel - sequential|.
const execTol = 1e-9

var execProgs = []struct {
	name    string
	mk      func() *ir.Program
	scalars map[string]float64
	iters   int
	x0      bool // the program reads an initial X
}{
	{"jacobi", ir.Jacobi, nil, 2, true},
	{"sor", ir.SOR, map[string]float64{"OMEGA": 1.2}, 2, true},
	{"gauss", ir.Gauss, nil, 1, false},
}

type execPoint struct {
	name    string
	p       *ir.Program
	scalars map[string]float64
	iters   int
	m, n    int
	ss      *core.SchemeSet
	// predicted is the compiler's cost of the executed scheme set over
	// the executed iterations: iters × (M[1][s] + loop-carried).
	predicted float64
	input     ir.Storage
	ref       ir.Storage
}

func (pt *execPoint) String() string { return fmt.Sprintf("%s m=%d N=%d", pt.name, pt.m, pt.n) }

func (pt *execPoint) bind() map[string]int { return map[string]int{"m": pt.m} }

// execPoints compiles every point and computes its reference. rec (nil
// when untraced) times the reference interpreter.
func execPoints(cfg config, rec *recorder) ([]*execPoint, error) {
	m, ns := 64, []int{16, 64, 256}
	if cfg.short {
		m, ns = 12, []int{4}
	}
	var pts []*execPoint
	for k, pr := range execProgs {
		for _, n := range ns {
			pt := &execPoint{name: pr.name, p: pr.mk(), scalars: pr.scalars, iters: pr.iters, m: m, n: n}
			c := core.NewCompiler(pt.p, cost.Unit(), pt.bind(), n)
			whole, ss, err := c.SegmentCost(1, len(pt.p.Nests))
			if err != nil {
				return nil, fmt.Errorf("compiling %s: %w", pt, err)
			}
			lc, err := c.LoopCarriedCost(ss)
			if err != nil {
				return nil, fmt.Errorf("compiling %s: %w", pt, err)
			}
			pt.ss, pt.predicted = ss, float64(pt.iters)*(whole+lc)
			pt.input = execInput(pt.p, m, pr.x0, cfg.seed*31+int64(k))
			pt.ref = ir.NewStorage(pt.p)
			for name, elems := range pt.input {
				for key, v := range elems {
					pt.ref[name][key] = v
				}
			}
			err = rec.do("ir.interp", func() error {
				return ir.EvalProgram(pt.p, pt.bind(), pt.ref, pt.scalars, pt.iters)
			})
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", pt, err)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// execInput is a seeded, diagonally dominant system A x = B (and X = 0
// where the program reads an initial guess).
func execInput(p *ir.Program, m int, x0 bool, seed int64) ir.Storage {
	a, b, _ := matrix.DiagonallyDominant(m, seed)
	in := ir.NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			in.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		in.Store("B", []int{i}, b[i-1])
		if x0 {
			in.Store("X", []int{i}, 0)
		}
	}
	return in
}

func execOp(pt *execPoint) (exec.Result, error) {
	return exec.RunOpts(pt.p, pt.ss, pt.bind(), pt.scalars, pt.iters, machine.DefaultConfig(), pt.input, exec.Options{})
}

// checkExec compares every element with the sequential reference.
func checkExec(pt *execPoint, res exec.Result) error {
	for name, elems := range pt.ref {
		for key, v := range elems {
			got, ok := res.Values[name][key]
			if d := math.Abs(got - v); !ok || !(d <= execTol) {
				return fmt.Errorf("%s(%s) = %g, sequential %g", name, key, got, v)
			}
		}
	}
	return nil
}

func execScale(cfg config) (*outcome, error) {
	// The traced run times the reference interpreter during set-up.
	var setupRec *recorder
	if cfg.trace {
		setupRec = newRecorder(time.Now())
	}
	setups := 0
	pts, setup, err := medianSetup(func() ([]*execPoint, error) {
		setups++
		return execPoints(cfg, setupRec)
	}, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	order := func(pass int) []int {
		return rand.New(rand.NewSource(cfg.seed*7919 + int64(pass))).Perm(len(pts))
	}
	times := make([][]float64, len(pts))
	op := func(k int) (exec.Result, bool) {
		runtime.GC() // every op starts from the same heap, outside the timing
		t0 := time.Now()
		res, err := execOp(pts[k])
		times[k] = append(times[k], ms(time.Since(t0)))
		if err != nil {
			o.check(false, "exec %s: %v", pts[k], err)
			return res, false
		}
		err = checkExec(pts[k], res)
		o.check(err == nil, "exec %s: %v", pts[k], err)
		return res, err == nil
	}

	if !cfg.trace {
		passes(cfg.seconds, func(pass int) {
			for _, k := range order(pass) {
				op(k)
			}
		})
		o.set("setup_s", setup)
		setOpTimes(o, times)
		return o, nil
	}

	// Traced run: at every point an untraced op, then a traced one.
	rec := newRecorder(setupRec.epoch)
	var untraced []float64
	var sim, host, alloc float64
	ops := 0
	var ms0, ms1 runtime.MemStats
	var makespan, naive, msgs, words, pairWords, msgWords, predicted []float64
	passes(cfg.seconds, func(pass int) {
		for _, k := range order(pass) {
			op(k)
			untraced = append(untraced, times[k][len(times[k])-1])
			pt := pts[k]
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			id := rec.beginOp()
			var res exec.Result
			err := rec.do("exec.run", func() (err error) { res, err = execOp(pt); return err })
			rec.end(id)
			runtime.ReadMemStats(&ms1)
			ops++
			if err == nil {
				err = checkExec(pt, res)
			}
			o.check(err == nil, "traced exec %s: %v", pt, err)
			if err != nil {
				continue
			}
			run := rec.spans[id+1].end - rec.spans[id+1].start
			sim += ms(res.SimWall)
			host += ms(run - res.SimWall)
			alloc += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			makespan = append(makespan, res.Transport.ParallelTime)
			naive = append(naive, res.Stats.ParallelTime)
			msgs = append(msgs, float64(res.Transport.Messages))
			words = append(words, float64(res.Transport.Words))
			pairWords = append(pairWords, float64(res.Transport.MaxPairWords))
			msgWords = append(msgWords, float64(res.Transport.MaxMsgWords))
			predicted = append(predicted, pt.predicted/res.Transport.ParallelTime)
		}
	})
	lt := reduce(rec)
	o.check(lt.mismatches == 0, "%d traced ops whose span self times do not add up to the op", lt.mismatches)
	perOp := func(v float64) float64 { return v / float64(ops) }
	o.set("exec.run_ms", perOp(ms(lt.self["exec.run"])))
	o.set("exec.host_ms", perOp(host))
	o.set("machine.sim_ms", perOp(sim))
	o.set("exec.alloc_mb", perOp(alloc))
	o.set("exec.transport_messages", geomean(msgs))
	o.set("exec.transport_words", geomean(words))
	o.set("exec.max_pair_words", geomean(pairWords))
	o.set("exec.max_msg_words", geomean(msgWords))
	o.set("makespan_geomean", geomean(makespan))
	o.set("exec.naive_makespan_geomean", geomean(naive))
	o.set("core.predicted_over_simulated", geomean(predicted))
	o.set("ir.interp_ms", ms(reduce(setupRec).self["ir.interp"])/float64(setups*len(pts)))
	o.set("trace.overhead_pct", overheadPct(lt.opMs(), untraced))
	if err := writeSpans(traceFile(cfg, "exec-scale"), setupRec, rec); err != nil {
		return nil, err
	}
	return o, nil
}
