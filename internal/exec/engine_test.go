// Cross-engine parity: the discrete-event runtime must reproduce the
// goroutine runtime bit for bit — values, naive Stats, and the batched
// transport's own Stats — on every kernel shape and on the fuzz corpus,
// in both pipeline modes and both redistribution lowerings (collective
// and point-to-point). This is the property that lets exec.Run default
// to the event engine while the goroutine runtime remains the
// semantics oracle.

package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// stencilProgram is a 5-point Jacobi-style stencil over a 2-D array —
// the IR counterpart of the kernels stencil, exercising four-neighbour
// ghost exchange in both grid dimensions.
func stencilProgram() *ir.Program {
	m := ir.V("m")
	p := &ir.Program{
		Name: "stencil5", Iterative: true, Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m, m}},
			"B": {Name: "B", Extents: []ir.Affine{m, m}},
		},
	}
	i, j := ir.V("i"), ir.V("j")
	ref := func(arr string, si, sj ir.Affine) ir.Ref {
		return ir.Ref{Array: arr, Subs: []ir.Affine{si, sj}}
	}
	loops := func() []ir.Loop {
		return []ir.Loop{
			{Index: "i", Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1},
			{Index: "j", Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1},
		}
	}
	avg := ir.MulE(ir.Num(0.25), ir.Add(
		ir.Add(ir.Rd(ref("A", i.PlusConst(-1), j)), ir.Rd(ref("A", i.PlusConst(1), j))),
		ir.Add(ir.Rd(ref("A", i, j.PlusConst(-1))), ir.Rd(ref("A", i, j.PlusConst(1))))))
	copyBack := ir.Rd(ref("B", i, j))
	p.Nests = []*ir.Nest{
		{Label: "L1", Loops: loops(), Stmts: []*ir.Stmt{{
			Line: 1, Depth: 2, LHS: ref("B", i, j), Reads: ir.ExprReads(avg),
			RHS: avg, Flops: ir.ExprFlops(avg), Text: "B(i,j) = 0.25*(A(i-1,j)+A(i+1,j)+A(i,j-1)+A(i,j+1))",
		}}},
		{Label: "L2", Loops: loops(), Stmts: []*ir.Stmt{{
			Line: 2, Depth: 2, LHS: ref("A", i, j), Reads: ir.ExprReads(copyBack),
			RHS: copyBack, Flops: 0, Text: "A(i,j) = B(i,j)",
		}}},
	}
	return p
}

// matmulProgram is a triple-loop matrix multiply with a travelling
// accumulator — the IR counterpart of the Cannon kernel's data motion:
// C(i,j) accumulates A(i,k)*B(k,j) under reduce semantics.
func matmulProgram() *ir.Program {
	m := ir.V("m")
	p := &ir.Program{
		Name: "matmul", Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m, m}},
			"B": {Name: "B", Extents: []ir.Affine{m, m}},
			"C": {Name: "C", Extents: []ir.Affine{m, m}},
		},
	}
	i, j, k := ir.V("i"), ir.V("j"), ir.V("k")
	lhs := ir.Ref{Array: "C", Subs: []ir.Affine{i, j}}
	rhs := ir.Add(ir.Rd(lhs), ir.MulE(
		ir.Rd(ir.Ref{Array: "A", Subs: []ir.Affine{i, k}}),
		ir.Rd(ir.Ref{Array: "B", Subs: []ir.Affine{k, j}})))
	p.Nests = []*ir.Nest{{
		Label: "L1",
		Loops: []ir.Loop{
			{Index: "i", Lo: ir.Const(1), Hi: m, Step: 1},
			{Index: "j", Lo: ir.Const(1), Hi: m, Step: 1},
			{Index: "k", Lo: ir.Const(1), Hi: m, Step: 1},
		},
		Stmts: []*ir.Stmt{{
			Line: 1, Depth: 3, LHS: lhs, Reads: ir.ExprReads(rhs), RHS: rhs,
			Flops: ir.ExprFlops(rhs), Reduce: true, Text: "C(i,j) = C(i,j) + A(i,k)*B(k,j) [reduce]",
		}},
	}}
	return p
}

// randomInput fills every array of p with deterministic pseudo-random
// values in [-1, 1).
func randomInput(p *ir.Program, m int, rng *rand.Rand) ir.Storage {
	input := ir.NewStorage(p)
	for name, arr := range p.Arrays {
		if arr.Rank() == 1 {
			for i := 1; i <= m; i++ {
				input.Store(name, []int{i}, rng.Float64()*2-1)
			}
		} else {
			for i := 1; i <= m; i++ {
				for j := 1; j <= m; j++ {
					input.Store(name, []int{i, j}, rng.Float64()*2-1)
				}
			}
		}
	}
	return input
}

// TestEngineParityKernels: every kernel program — the linear-system
// three plus the stencil and matmul IR counterparts of the
// stencil/Cannon kernels — produces identical results on both engines,
// in both pipeline modes, across processor counts.
func TestEngineParityKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	type kase struct {
		name    string
		p       *ir.Program
		m       int
		iters   int
		ns      []int
		scalars map[string]float64
		derive  bool // fuzzSchemes (alignment-derived) vs compiler schemes
	}
	cases := []kase{
		{name: "jacobi", p: ir.Jacobi(), m: 12, iters: 3, ns: []int{1, 2, 4}},
		{name: "sor", p: ir.SOR(), m: 12, iters: 3, ns: []int{1, 2, 4},
			scalars: map[string]float64{"OMEGA": 1.2}},
		{name: "gauss", p: ir.Gauss(), m: 9, iters: 1, ns: []int{1, 3}},
		{name: "stencil", p: stencilProgram(), m: 12, iters: 2, ns: []int{1, 2, 4}, derive: true},
		{name: "matmul", p: matmulProgram(), m: 6, iters: 1, ns: []int{1, 2, 3}, derive: true},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err != nil {
			t.Fatalf("%s: invalid program: %v", c.name, err)
		}
		input := randomInput(c.p, c.m, rng)
		for _, n := range c.ns {
			var ss = wholeProgramSchemes(t, c.p, c.m, n)
			if c.derive {
				ss = fuzzSchemes(t, c.p, c.m, n)
				if ss == nil {
					t.Fatalf("%s n=%d: no derived schemes", c.name, n)
				}
			}
			bind := map[string]int{"m": c.m}
			for _, noPipe := range []bool{false, true} {
				for _, redist := range []Redist{RedistCollective, RedistP2P} {
					label := fmt.Sprintf("%s m=%d n=%d noPipe=%v redist=%v", c.name, c.m, n, noPipe, redist)
					ev, err := RunOpts(c.p, ss, bind, c.scalars, c.iters, machine.DefaultConfig(), input,
						Options{Engine: EngineEvents, NoPipeline: noPipe, Redist: redist})
					if err != nil {
						t.Fatalf("%s: events engine: %v", label, err)
					}
					gr, err := RunOpts(c.p, ss, bind, c.scalars, c.iters, machine.DefaultConfig(), input,
						Options{Engine: EngineGoroutines, NoPipeline: noPipe, Redist: redist})
					if err != nil {
						t.Fatalf("%s: goroutine engine: %v", label, err)
					}
					requireEngineEqual(t, label, ev, gr)
				}
			}
		}
	}
}

// requireEngineEqual asserts bit-identical Values, Stats and Transport
// between the two engines' results.
func requireEngineEqual(t *testing.T, label string, ev, gr Result) {
	t.Helper()
	if !reflect.DeepEqual(ev.Values, gr.Values) {
		t.Fatalf("%s: event engine values differ from goroutine engine", label)
	}
	if !reflect.DeepEqual(ev.Stats, gr.Stats) {
		t.Fatalf("%s: event engine stats differ from goroutine engine:\n got %+v\nwant %+v", label, ev.Stats, gr.Stats)
	}
	if !reflect.DeepEqual(ev.Transport, gr.Transport) {
		t.Fatalf("%s: event engine transport differs from goroutine engine:\n got %+v\nwant %+v",
			label, ev.Transport, gr.Transport)
	}
}

// TestEngineParityFuzz: the randomized property kept in CI — random
// reduce-bearing programs, random schemes, random inputs, ChanCap=1,
// both pipeline modes: the two engines agree exactly.
func TestEngineParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	const m = 8
	tight := machine.DefaultConfig()
	tight.ChanCap = 1
	for trial := 0; trial < 25; trial++ {
		p := randomReduceProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		input := randomInput(p, m, rng)
		iters := 1 + rng.Intn(2)
		for _, n := range []int{1, 2, 4} {
			ss := fuzzSchemes(t, p, m, n)
			if ss == nil {
				continue
			}
			bind := map[string]int{"m": m}
			for _, noPipe := range []bool{false, true} {
				for _, redist := range []Redist{RedistCollective, RedistP2P} {
					label := fmt.Sprintf("trial %d n=%d noPipe=%v redist=%v", trial, n, noPipe, redist)
					ev, err := RunOpts(p, ss, bind, nil, iters, tight, input,
						Options{Engine: EngineEvents, NoPipeline: noPipe, Redist: redist})
					if err != nil {
						t.Fatalf("%s: events engine: %v", label, err)
					}
					gr, err := RunOpts(p, ss, bind, nil, iters, tight, input,
						Options{Engine: EngineGoroutines, NoPipeline: noPipe, Redist: redist})
					if err != nil {
						t.Fatalf("%s: goroutine engine: %v", label, err)
					}
					requireEngineEqual(t, label, ev, gr)
				}
			}
		}
	}
}

// TestParseRedist: the zero Options.Redist is the collective lowering,
// "auto" stays a flag synonym for it, and names round-trip.
func TestParseRedist(t *testing.T) {
	if (Options{}).Redist != RedistCollective {
		t.Fatal("the zero Options.Redist is not RedistCollective")
	}
	for name, want := range map[string]Redist{"collective": RedistCollective, "auto": RedistCollective, "p2p": RedistP2P} {
		got, err := ParseRedist(name)
		if err != nil || got != want {
			t.Errorf("ParseRedist(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, r := range []Redist{RedistCollective, RedistP2P} {
		if got, err := ParseRedist(r.String()); err != nil || got != r {
			t.Errorf("ParseRedist(%v.String()) = %v, %v", r, got, err)
		}
	}
	if _, err := ParseRedist("bogus"); err == nil {
		t.Error("ParseRedist accepted an unknown name")
	}
}

// TestEngineAutoSelection: EngineAuto resolves to events unless a
// transport tracer is attached (trace consumers keep the goroutine
// runtime), and the explicit names round-trip through String.
func TestEngineAutoSelection(t *testing.T) {
	if got := EngineAuto.String(); got != "auto" {
		t.Errorf("EngineAuto.String() = %q", got)
	}
	if got := EngineEvents.String(); got != "events" {
		t.Errorf("EngineEvents.String() = %q", got)
	}
	if got := EngineGoroutines.String(); got != "goroutines" {
		t.Errorf("EngineGoroutines.String() = %q", got)
	}

	// A traced run on the auto engine must still satisfy the oracle —
	// it silently uses the goroutine runtime, and the sequence of trace
	// events it produces must be the live interleaving's.
	p := ir.Jacobi()
	m := 8
	a, b, _ := matrix.DiagonallyDominant(m, 811)
	input := loadLinearSystem(p, a, b, make([]float64, m))
	ss := wholeProgramSchemes(t, p, m, 2)
	bind := map[string]int{"m": m}
	tr := &countingTracer{}
	res, err := RunOpts(p, ss, bind, nil, 2, machine.DefaultConfig(), input, Options{TransportTracer: tr})
	if err != nil {
		t.Fatalf("traced auto run: %v", err)
	}
	if tr.n.Load() == 0 {
		t.Fatal("transport tracer saw no events")
	}
	want, err := RunExact(p, ss, bind, nil, 2, exactCfg(machine.DefaultConfig(), m), input)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	requireIdentical(t, "traced auto", res, want)
}

// countingTracer counts events; the goroutine runtime records from
// concurrent processors, so the counter is atomic.
type countingTracer struct{ n atomic.Int64 }

func (c *countingTracer) Record(machine.Event) { c.n.Add(1) }
