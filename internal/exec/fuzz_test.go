package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"dmcc/internal/align"
	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// randomProgram builds a random but valid IR program: 1-3 nests over 2-3
// arrays, identity or +-1 subscripts (bounds keep them in range), and
// division-free RHS trees so no NaN can appear.
func randomProgram(rng *rand.Rand) *ir.Program {
	m := ir.V("m")
	names := []string{"P", "Q", "R"}[:2+rng.Intn(2)]
	p := &ir.Program{
		Name:      "fuzz",
		Iterative: rng.Intn(2) == 0,
		Params:    []string{"m"},
		Arrays:    map[string]*ir.Array{},
	}
	ranks := map[string]int{}
	for _, n := range names {
		rank := 1 + rng.Intn(2)
		ranks[n] = rank
		ext := make([]ir.Affine, rank)
		for i := range ext {
			ext[i] = m
		}
		p.Arrays[n] = &ir.Array{Name: n, Extents: ext}
	}

	subFor := func(idxVars []string, k int) ir.Affine {
		v := idxVars[k%len(idxVars)]
		switch rng.Intn(3) {
		case 0:
			return ir.V(v)
		case 1:
			return ir.V(v).PlusConst(-1)
		default:
			return ir.V(v).PlusConst(1)
		}
	}
	refFor := func(arr string, idxVars []string) ir.Ref {
		subs := make([]ir.Affine, ranks[arr])
		for k := range subs {
			subs[k] = subFor(idxVars, k+rng.Intn(2))
		}
		return ir.Ref{Array: arr, Subs: subs}
	}

	nNests := 1 + rng.Intn(3)
	for t := 0; t < nNests; t++ {
		depth := 1 + rng.Intn(2)
		idxVars := []string{"i", "j"}[:depth]
		nest := &ir.Nest{Label: fmt.Sprintf("N%d", t+1)}
		for d := 0; d < depth; d++ {
			// Bounds 2..m-1 keep +-1 subscripts legal.
			nest.Loops = append(nest.Loops, ir.Loop{
				Index: idxVars[d], Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1,
			})
		}
		nStmts := 1 + rng.Intn(2)
		for s := 0; s < nStmts; s++ {
			lhsArr := names[rng.Intn(len(names))]
			// The LHS uses identity subscripts so owner-computes is clean.
			lhsSubs := make([]ir.Affine, ranks[lhsArr])
			for k := range lhsSubs {
				lhsSubs[k] = ir.V(idxVars[k%len(idxVars)])
			}
			lhs := ir.Ref{Array: lhsArr, Subs: lhsSubs}
			// RHS: a small sum/product tree over random refs and constants;
			// no division, coefficients shrink values to avoid overflow.
			r1 := refFor(names[rng.Intn(len(names))], idxVars)
			r2 := refFor(names[rng.Intn(len(names))], idxVars)
			var rhs ir.Expr
			switch rng.Intn(3) {
			case 0:
				rhs = ir.Add(ir.MulE(ir.Num(0.5), ir.Rd(r1)), ir.MulE(ir.Num(0.25), ir.Rd(r2)))
			case 1:
				rhs = ir.Sub(ir.Rd(r1), ir.MulE(ir.Num(0.5), ir.Rd(r2)))
			default:
				rhs = ir.Add(ir.MulE(ir.Num(0.5), ir.Rd(lhs)), ir.MulE(ir.Num(0.125), ir.Rd(r1)))
			}
			reads := ir.ExprReads(rhs)
			nest.Stmts = append(nest.Stmts, &ir.Stmt{
				Line:  10*t + s + 1,
				Depth: depth,
				LHS:   lhs,
				Reads: reads,
				RHS:   rhs,
				Flops: ir.ExprFlops(rhs),
				Text:  fmt.Sprintf("%s = %s", lhs, rhs),
			})
		}
		p.Nests = append(p.Nests, nest)
	}
	return p
}

// TestExecDifferentialFuzz: for random programs, random schemes (via the
// compiler) and random inputs, the parallel naive backend agrees with the
// sequential interpreter on every processor count.
func TestExecDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	const m = 8
	for trial := 0; trial < 25; trial++ {
		p := randomProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		// Random inputs.
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
		iters := 1 + rng.Intn(2)

		// Sequential reference on a deep copy.
		ref := ir.NewStorage(p)
		for name, elems := range input {
			for k, v := range elems {
				ref[name][k] = v
			}
		}
		if err := ir.EvalProgram(p, map[string]int{"m": m}, ref, nil, iters); err != nil {
			t.Fatalf("trial %d: sequential eval: %v", trial, err)
		}

		for _, n := range []int{1, 2, 4} {
			ss := fuzzSchemes(t, p, m, n)
			if ss == nil {
				continue
			}
			res, err := Run(p, ss, map[string]int{"m": m}, nil, iters, machine.DefaultConfig(), input)
			if err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			for name, elems := range ref {
				for k, want := range elems {
					got := res.Values[name][k]
					if d := got - want; d > 1e-9 || d < -1e-9 {
						t.Fatalf("trial %d n=%d: %s[%s] = %v, want %v\nprogram nests=%d",
							trial, n, name, k, got, want, len(p.Nests))
					}
				}
			}
		}
	}
}

func fuzzSchemes(t *testing.T, p *ir.Program, m, n int) *core.SchemeSet {
	t.Helper()
	g, err := align.BuildGraph(p, p.Nests, align.WeightParams{Bind: map[string]int{"m": m}, N: n, Tc: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := align.ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := core.DeriveSchemes(p, pt, [2]int{n, 1}, map[string]int{"m": m}, false)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// randomAffineProgram draws programs with the affine shapes the compiled
// references must get right, beyond randomProgram's v and v±1 over
// unit-step loops: coefficients other than ±1 (2*i-1), parameter terms
// (m-i+1, 2*m-i), two-variable subscripts (i+j-1), negative-step loops,
// triangular inner bounds (j = i..m-1 or 2..i), and depth-1 pre- and
// post-statements inside depth-2 nests. Every loop index stays in
// 2..m-1, so narrow dimensions (extent m) take v±1 or m-v+1 and wide
// ones (extent 2m) also take 2*v-1, 2*m-v and i+j-1.
func randomAffineProgram(rng *rand.Rand) *ir.Program {
	m := ir.V("m")
	names := []string{"P", "Q", "R"}[:2+rng.Intn(2)]
	p := &ir.Program{
		Name:      "affine-fuzz",
		Iterative: rng.Intn(2) == 0,
		Params:    []string{"m"},
		Arrays:    map[string]*ir.Array{},
	}
	wide := map[string][]bool{}
	for _, n := range names {
		rank := 1 + rng.Intn(2)
		ext := make([]ir.Affine, rank)
		wide[n] = make([]bool, rank)
		for d := range ext {
			ext[d] = m
			if rng.Intn(2) == 0 {
				ext[d] = ir.NewAffine(0, ir.Term{Var: "m", Coeff: 2})
				wide[n][d] = true
			}
		}
		p.Arrays[n] = &ir.Array{Name: n, Extents: ext}
	}

	// sub draws one subscript over the loop indices vars for a dimension.
	sub := func(vars []string, wideDim bool) ir.Affine {
		v := ir.V(vars[rng.Intn(len(vars))])
		kinds := 3
		if wideDim {
			kinds = 6
		}
		switch rng.Intn(kinds) {
		case 0:
			return v.PlusConst(rng.Intn(3) - 1)
		case 1:
			return m.Minus(v).PlusConst(1)
		case 2:
			return v
		case 3:
			return ir.NewAffine(-1, ir.Term{Var: vars[rng.Intn(len(vars))], Coeff: 2})
		case 4:
			return ir.NewAffine(0, ir.Term{Var: "m", Coeff: 2}).Minus(v)
		default:
			if len(vars) < 2 {
				return ir.NewAffine(-1, ir.Term{Var: vars[0], Coeff: 2})
			}
			return ir.V(vars[0]).Plus(ir.V(vars[1])).PlusConst(-1)
		}
	}
	ref := func(arr string, vars []string) ir.Ref {
		subs := make([]ir.Affine, len(wide[arr]))
		for d := range subs {
			subs[d] = sub(vars, wide[arr][d])
		}
		return ir.Ref{Array: arr, Subs: subs}
	}
	// lhsFor writes a permutation of the iteration space: v or m-v+1
	// per dimension, so owner-computes stays a plain owner lookup.
	lhsFor := func(arr string, vars []string) ir.Ref {
		subs := make([]ir.Affine, len(wide[arr]))
		for d := range subs {
			v := ir.V(vars[d%len(vars)])
			if rng.Intn(2) == 0 {
				subs[d] = v
			} else {
				subs[d] = m.Minus(v).PlusConst(1)
			}
		}
		return ir.Ref{Array: arr, Subs: subs}
	}
	stmt := func(line, depth int, vars []string) *ir.Stmt {
		lhs := lhsFor(names[rng.Intn(len(names))], vars)
		r1 := ref(names[rng.Intn(len(names))], vars)
		r2 := ref(names[rng.Intn(len(names))], vars)
		var rhs ir.Expr
		switch rng.Intn(3) {
		case 0:
			rhs = ir.Add(ir.MulE(ir.Num(0.5), ir.Rd(r1)), ir.MulE(ir.Num(0.25), ir.Rd(r2)))
		case 1:
			rhs = ir.Sub(ir.Rd(r1), ir.MulE(ir.Num(0.5), ir.NegE{E: ir.Rd(r2)}))
		default:
			rhs = ir.Add(ir.MulE(ir.Num(0.5), ir.Rd(lhs)), ir.MulE(ir.Num(0.125), ir.Rd(r1)))
		}
		return &ir.Stmt{
			Line: line, Depth: depth, LHS: lhs, Reads: ir.ExprReads(rhs), RHS: rhs,
			Flops: ir.ExprFlops(rhs), Text: fmt.Sprintf("%s = %s", lhs, rhs),
		}
	}

	nNests := 1 + rng.Intn(3)
	for t := 0; t < nNests; t++ {
		depth := 1 + rng.Intn(2)
		nest := &ir.Nest{Label: fmt.Sprintf("N%d", t+1)}
		outer := ir.Loop{Index: "i", Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1}
		if rng.Intn(2) == 0 {
			outer = ir.Loop{Index: "i", Lo: m.PlusConst(-1), Hi: ir.Const(2), Step: -1}
		}
		nest.Loops = append(nest.Loops, outer)
		line := 10*t + 1
		if depth == 1 {
			for s := 0; s < 1+rng.Intn(2); s++ {
				nest.Stmts = append(nest.Stmts, stmt(line, 1, []string{"i"}))
				line++
			}
			p.Nests = append(p.Nests, nest)
			continue
		}
		var inner ir.Loop
		switch rng.Intn(4) {
		case 0:
			inner = ir.Loop{Index: "j", Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1}
		case 1:
			inner = ir.Loop{Index: "j", Lo: m.PlusConst(-1), Hi: ir.Const(2), Step: -1}
		case 2:
			inner = ir.Loop{Index: "j", Lo: ir.V("i"), Hi: m.PlusConst(-1), Step: 1}
		default:
			inner = ir.Loop{Index: "j", Lo: ir.V("i"), Hi: ir.Const(2), Step: -1}
		}
		nest.Loops = append(nest.Loops, inner)
		if rng.Intn(2) == 0 {
			nest.Stmts = append(nest.Stmts, stmt(line, 1, []string{"i"}))
			line++
		}
		for s := 0; s < 1+rng.Intn(2); s++ {
			nest.Stmts = append(nest.Stmts, stmt(line, 2, []string{"i", "j"}))
			line++
		}
		if rng.Intn(2) == 0 {
			// Source order after the depth-2 statements: runs after the
			// inner loop (ir.Nest.IsPost).
			nest.Stmts = append(nest.Stmts, stmt(line, 1, []string{"i"}))
		}
		p.Nests = append(p.Nests, nest)
	}
	return p
}

// TestExecAffineDifferentialFuzz: on randomAffineProgram's shapes the
// batched engine's values match the sequential interpreter, and its
// values, Stats and Transport match the per-element RunExact oracle
// (values and Stats exactly, Transport never above the naive counts),
// in both pipeline modes and both redistribution lowerings.
func TestExecAffineDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	const m = 9
	bind := map[string]int{"m": m}
	tight := machine.DefaultConfig()
	tight.ChanCap = 1
	for trial := 0; trial < 30; trial++ {
		p := randomAffineProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		input := ir.NewStorage(p)
		for name, arr := range p.Arrays {
			ext := make([]int, arr.Rank())
			for d, e := range arr.Extents {
				ext[d] = e.Eval(bind)
			}
			if arr.Rank() == 1 {
				for i := 1; i <= ext[0]; i++ {
					input.Store(name, []int{i}, rng.Float64()*2-1)
				}
				continue
			}
			for i := 1; i <= ext[0]; i++ {
				for j := 1; j <= ext[1]; j++ {
					input.Store(name, []int{i, j}, rng.Float64()*2-1)
				}
			}
		}
		iters := 1 + rng.Intn(2)
		ref := ir.NewStorage(p)
		for name, elems := range input {
			for k, v := range elems {
				ref[name][k] = v
			}
		}
		if err := ir.EvalProgram(p, bind, ref, nil, iters); err != nil {
			t.Fatalf("trial %d: sequential eval: %v", trial, err)
		}
		for _, n := range []int{1, 2, 4} {
			ss := fuzzSchemes(t, p, m, n)
			label := fmt.Sprintf("trial %d n=%d", trial, n)
			want, err := RunExact(p, ss, bind, nil, iters, exactCfg(machine.DefaultConfig(), 2*m), input)
			if err != nil {
				t.Fatalf("%s: exact: %v", label, err)
			}
			for _, opt := range []Options{{}, {NoPipeline: true}, {Redist: RedistP2P}} {
				got, err := RunOpts(p, ss, bind, nil, iters, tight, input, opt)
				if err != nil {
					t.Fatalf("%s %+v: %v", label, opt, err)
				}
				for name, elems := range ref {
					for k, v := range elems {
						if d := got.Values[name][k] - v; d > 1e-9 || d < -1e-9 {
							t.Fatalf("%s %+v: %s[%s] = %v, sequential %v", label, opt, name, k, got.Values[name][k], v)
						}
					}
				}
				requireIdentical(t, fmt.Sprintf("%s %+v", label, opt), got, want)
			}
		}
	}
}
