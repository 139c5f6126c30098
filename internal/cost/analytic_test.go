package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// randDim mirrors the dist package's property-test generator: a valid Dim
// for a dimension of the given size on a grid dimension of extent n.
func randDim(rng *rand.Rand, size, n, gridDim int) dist.Dim {
	if rng.Intn(4) == 0 {
		return dist.Dim{Replicated: true, GridDim: gridDim}
	}
	d := dist.Dim{Sign: 1, Block: 1 + rng.Intn(4), Cyclic: rng.Intn(2) == 0, GridDim: gridDim}
	if rng.Intn(3) == 0 {
		d.Sign = -1
	}
	if d.Sign == 1 {
		d.Disp = -1 + rng.Intn(4)
	} else {
		d.Disp = size + rng.Intn(3)
	}
	if !d.Cyclic {
		zmax := d.Sign*size + d.Disp
		if d.Sign == -1 {
			zmax = d.Disp - 1
		}
		d.Block = ceilDiv(zmax+1, n)
		if d.Block < 1 {
			d.Block = 1
		}
		d.Block += rng.Intn(2)
	}
	return d
}

func randScheme(rng *rand.Rand, g *grid.Grid, shape []int) dist.Scheme {
	dims := rng.Perm(g.Q())[:len(shape)]
	s := dist.Scheme{Fixed: map[int]int{}}
	for k, size := range shape {
		s.Dims = append(s.Dims, randDim(rng, size, g.Extent(dims[k]), dims[k]))
	}
	if len(shape) == 2 && !s.Dims[0].Replicated && !s.Dims[1].Replicated && rng.Intn(5) == 0 {
		s.Rot = dist.Rotation(1 + rng.Intn(2))
		s.D1 = 1 - 2*rng.Intn(2)
		s.D2 = 1 - 2*rng.Intn(2)
	}
	used := map[int]bool{}
	for _, d := range s.Dims {
		used[d.GridDim] = true
	}
	for gd := 0; gd < g.Q(); gd++ {
		if used[gd] {
			continue
		}
		if rng.Intn(2) == 0 {
			s.Fixed[gd] = dist.All
		} else {
			s.Fixed[gd] = rng.Intn(g.Extent(gd))
		}
	}
	return s
}

// randNestProgram builds a random affine nest over a fixed set of arrays:
// 1-3 loops (occasionally triangular, empty, or downward), statements at
// random depths with random affine references (offsets, reversed
// subscripts, diagonals), and occasional reductions — the program class
// the counting engines must agree on.
func randNestProgram(rng *rand.Rand, m int) *ir.Program {
	p := &ir.Program{
		Name: "rand",
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{ir.V("m"), ir.V("m")}},
			"C": {Name: "C", Extents: []ir.Affine{ir.V("m"), ir.V("m")}},
			"B": {Name: "B", Extents: []ir.Affine{ir.V("m")}},
			"X": {Name: "X", Extents: []ir.Affine{ir.V("m")}},
		},
		Params: []string{"m"},
	}
	depth := 1 + rng.Intn(3)
	vars := []string{"i", "j", "k"}[:depth]
	nest := &ir.Nest{Label: "R1"}
	// Conservative per-level value bounds for in-range subscript offsets.
	loMin := make([]int, depth)
	hiMax := make([]int, depth)
	for l := 0; l < depth; l++ {
		lo := 1 + rng.Intn(2)
		hi := m - rng.Intn(2)
		loA, hiA := ir.Const(lo), ir.Const(hi)
		loMin[l], hiMax[l] = lo, hi
		if l > 0 && rng.Intn(6) == 0 {
			// Triangular: lower bound follows an outer index.
			loA = ir.V(vars[rng.Intn(l)])
			loMin[l] = 1
		} else if rng.Intn(12) == 0 {
			loA, hiA = ir.Const(3), ir.Const(2) // empty range
			loMin[l], hiMax[l] = 3, 2
		}
		step := 1
		if rng.Intn(4) == 0 {
			step = -1
			loA, hiA = hiA, loA
		}
		nest.Loops = append(nest.Loops, ir.Loop{Index: vars[l], Lo: loA, Hi: hiA, Step: step})
	}
	randSub := func(scope int) ir.Affine {
		if rng.Intn(4) == 0 {
			return ir.Const(1 + rng.Intn(m))
		}
		l := rng.Intn(scope)
		if rng.Intn(4) == 0 {
			// Reversed: c - v with c keeping values in [1, m].
			c := hiMax[l] + 1
			if c+loMin[l] <= m+loMin[l] && rng.Intn(2) == 0 && c+1 <= m+loMin[l] {
				c++
			}
			return ir.NewAffine(c, ir.Term{Var: vars[l], Coeff: -1})
		}
		cLo, cHi := 1-loMin[l], m-hiMax[l]
		c := 0
		switch {
		case cLo <= -1 && rng.Intn(3) == 0:
			c = -1
		case cHi >= 1 && rng.Intn(3) == 0:
			c = 1
		}
		return ir.NewAffine(c, ir.Term{Var: vars[l], Coeff: 1})
	}
	names := []string{"A", "C", "B", "X"}
	randRef := func(scope int) ir.Ref {
		name := names[rng.Intn(len(names))]
		arr := p.Arrays[name]
		if arr.Rank() == 1 {
			return ir.R(name, randSub(scope))
		}
		if rng.Intn(4) == 0 && scope > 0 {
			// Diagonal: both subscripts driven by the same variable.
			return ir.R(name, randSub(scope), randSub(scope))
		}
		return ir.R(name, randSub(scope), randSub(scope))
	}
	diagRef := func(scope int) ir.Ref {
		l := rng.Intn(scope)
		v := ir.NewAffine(0, ir.Term{Var: vars[l], Coeff: 1})
		w := v
		if hiMax[l] < m {
			w = ir.NewAffine(1, ir.Term{Var: vars[l], Coeff: 1})
		}
		return ir.R("A", v, w)
	}
	nStmts := 1 + rng.Intn(2)
	for si := 0; si < nStmts; si++ {
		d := 1 + rng.Intn(depth)
		st := &ir.Stmt{Line: si + 1, Depth: d, Flops: 1 + rng.Intn(3)}
		st.LHS = randRef(d)
		nr := 1 + rng.Intn(2)
		for r := 0; r < nr; r++ {
			if rng.Intn(5) == 0 && d > 0 {
				st.Reads = append(st.Reads, diagRef(d))
			} else {
				st.Reads = append(st.Reads, randRef(d))
			}
		}
		if rng.Intn(3) == 0 {
			st.Reduce = true
			// Reductions read their accumulator.
			st.Reads = append(st.Reads, st.LHS)
		}
		nest.Stmts = append(nest.Stmts, st)
	}
	p.Nests = []*ir.Nest{nest}
	return p
}

func countsEqual(t *testing.T, label string, got, want Counts) {
	t.Helper()
	if got != want {
		t.Errorf("%s: got %+v, want %+v", label, got, want)
	}
}

// TestCountNestMatchesOracle is the randomized property test of the
// analytic engine: the closed forms and the dispatcher must reproduce
// the reference enumeration word for word across random affine nests,
// schemes, grid shapes, both loop-step signs, reductions,
// diagonals, filters and skip options. The large-grid arm reaches 16
// processors and draws m across a step of the block size ceil(m/n), so
// per-coordinate owner patterns go empty, partial and full — the cases
// the send attribution's cell pruning and band classification split on.
func TestCountNestMatchesOracle(t *testing.T) {
	checkOracleTrials(t, []*grid.Grid{
		grid.New(4, 1), grid.New(1, 4), grid.New(2, 2), grid.New(2, 3), grid.New(6, 1),
	}, 42, 250, func(rng *rand.Rand, _ *grid.Grid) int { return 8 + rng.Intn(4) })
	checkOracleTrials(t, []*grid.Grid{
		grid.New(8, 1), grid.New(1, 8), grid.New(4, 4), grid.New(3, 5), grid.New(16, 1),
	}, 4242, 150, func(rng *rand.Rand, g *grid.Grid) int {
		// k*n-2 .. k*n+2 with k*n >= 8 straddles the step of ceil(m/n)
		// at k*n for the widest grid dimension n.
		n := g.Extent(0)
		if g.Q() > 1 && g.Extent(1) > n {
			n = g.Extent(1)
		}
		return ceilDiv(8, n)*n - 2 + rng.Intn(5)
	})
}

func checkOracleTrials(t *testing.T, grids []*grid.Grid, seed int64, trials int, drawM func(*rand.Rand, *grid.Grid) int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	analyticHits := 0
	for trial := 0; trial < trials; trial++ {
		g := grids[trial%len(grids)]
		m := drawM(rng, g)
		bind := map[string]int{"m": m}
		p := randNestProgram(rng, m)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		nest := p.Nests[0]
		schemes := map[string]dist.Scheme{}
		for name, arr := range p.Arrays {
			shape := make([]int, arr.Rank())
			for k := range shape {
				shape[k] = m
			}
			schemes[name] = randScheme(rng, g, shape)
			if err := schemes[name].Validate(g, shape); err != nil {
				t.Fatalf("trial %d: invalid scheme for %s: %v", trial, name, err)
			}
		}
		var opts CountOptions
		switch trial % 4 {
		case 1:
			excl := []string{"A", "C", "B", "X"}[rng.Intn(4)]
			opts.IncludeRead = func(a string) bool { return a != excl }
		case 2:
			opts.SkipReduction = true
			opts.SkipFlops = true
		case 3:
			opts.SkipReduction = true
		}

		want, err := CountNestOptsExact(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		gotAn, ok, err := countNestAnalytic(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: analytic: %v", trial, err)
		}
		if ok {
			analyticHits++
			countsEqual(t, "analytic", gotAn, want)
		}
		got, err := CountNestOpts(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: dispatcher: %v", trial, err)
		}
		countsEqual(t, "dispatcher", got, want)
		if t.Failed() {
			t.Fatalf("trial %d: m=%d grid=%s nest=%+v", trial, m, g, nest)
		}
	}
	// The generator produces mostly eligible nests; if the analytic path
	// stops engaging, the closed forms silently stop being tested (and
	// the compiler silently loses its speedup).
	if analyticHits < trials/4 {
		t.Fatalf("analytic path engaged on only %d/%d trials", analyticHits, trials)
	}
}

// TestCountNestAnalyticJacobi pins the analytic engine to the paper's
// Jacobi nests under both Table 2 schemes: the closed forms must engage
// (ok=true) and agree with the oracle.
func TestCountNestAnalyticJacobi(t *testing.T) {
	p := ir.Jacobi()
	m, n := 16, 4
	bind := map[string]int{"m": m}
	for _, tc := range []struct {
		name    string
		g       *grid.Grid
		schemes map[string]dist.Scheme
	}{
		{"rows", grid.New(n, 1), jacobiRowSchemes(m, n)},
		{"cols", grid.New(1, n), jacobiColSchemes(m, n)},
	} {
		g := tc.g
		for _, nest := range p.Nests {
			want, err := CountNestOptsExact(p, nest, tc.schemes, g, bind, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := countNestAnalytic(p, nest, tc.schemes, g, bind, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s/%s: analytic engine declined an eligible nest", tc.name, nest.Label)
			}
			countsEqual(t, tc.name+"/"+nest.Label, got, want)
		}
	}
}

// randTriangularProgram builds a random nest whose inner loops carry
// bounds dependent on the outermost (root) variable — gauss's i = k+1..m
// and back-substitution's i = j-1..1 — mixed with constant-bounded
// slots, diagonals, reversed subscripts and reductions. The class the
// triangular extension of the analytic engine must price exactly.
func randTriangularProgram(rng *rand.Rand, m, depth int) *ir.Program {
	p := &ir.Program{
		Name: "tri",
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{ir.V("m"), ir.V("m")}},
			"C": {Name: "C", Extents: []ir.Affine{ir.V("m"), ir.V("m")}},
			"B": {Name: "B", Extents: []ir.Affine{ir.V("m")}},
			"X": {Name: "X", Extents: []ir.Affine{ir.V("m")}},
		},
		Params: []string{"m"},
	}
	vars := []string{"k", "i", "j"}[:depth]
	nest := &ir.Nest{Label: "T1"}
	loMin := make([]int, depth)
	hiMax := make([]int, depth)
	lo0 := 1 + rng.Intn(2)
	hi0 := m - rng.Intn(2)
	loMin[0], hiMax[0] = lo0, hi0
	rootLoop := ir.Loop{Index: vars[0], Lo: ir.Const(lo0), Hi: ir.Const(hi0), Step: 1}
	if rng.Intn(3) == 0 {
		rootLoop = ir.Loop{Index: vars[0], Lo: ir.Const(hi0), Hi: ir.Const(lo0), Step: -1}
	}
	nest.Loops = append(nest.Loops, rootLoop)
	for l := 1; l < depth; l++ {
		if rng.Intn(3) == 0 {
			// Constant-bounded slot alongside the triangular ones.
			lo := 1 + rng.Intn(2)
			hi := m - rng.Intn(2)
			loMin[l], hiMax[l] = lo, hi
			nest.Loops = append(nest.Loops, ir.Loop{Index: vars[l], Lo: ir.Const(lo), Hi: ir.Const(hi), Step: 1})
			continue
		}
		var loA, hiA ir.Affine
		if rng.Intn(2) == 0 {
			// Lower bound follows the root: v = root+c .. hi.
			c := rng.Intn(3)
			hi := m - rng.Intn(2)
			loA = ir.NewAffine(c, ir.Term{Var: vars[0], Coeff: 1})
			hiA = ir.Const(hi)
			loMin[l], hiMax[l] = lo0+c, hi
		} else {
			// Upper bound follows the root: v = lo .. root+c.
			c := -rng.Intn(2)
			lo := 1 + rng.Intn(2)
			loA = ir.NewAffine(c, ir.Term{Var: vars[0], Coeff: 1})
			hiA = ir.Const(lo)
			loA, hiA = hiA, loA
			loMin[l], hiMax[l] = lo, hi0+c
		}
		step := 1
		if rng.Intn(3) == 0 {
			step = -1
			loA, hiA = hiA, loA
		}
		nest.Loops = append(nest.Loops, ir.Loop{Index: vars[l], Lo: loA, Hi: hiA, Step: step})
	}
	randSub := func(scope int) ir.Affine {
		if rng.Intn(5) == 0 {
			return ir.Const(1 + rng.Intn(m))
		}
		l := rng.Intn(scope)
		if loMin[l] > hiMax[l] {
			return ir.Const(1 + rng.Intn(m))
		}
		if rng.Intn(5) == 0 {
			// Reversed: c - v staying in [1, m] over the hull.
			return ir.NewAffine(hiMax[l]+1, ir.Term{Var: vars[l], Coeff: -1})
		}
		cLo, cHi := 1-loMin[l], m-hiMax[l]
		c := 0
		switch {
		case cLo <= -1 && rng.Intn(3) == 0:
			c = -1
		case cHi >= 1 && rng.Intn(3) == 0:
			c = 1
		}
		return ir.NewAffine(c, ir.Term{Var: vars[l], Coeff: 1})
	}
	names := []string{"A", "C", "B", "X"}
	randRef := func(scope int) ir.Ref {
		name := names[rng.Intn(len(names))]
		if p.Arrays[name].Rank() == 1 {
			return ir.R(name, randSub(scope))
		}
		return ir.R(name, randSub(scope), randSub(scope))
	}
	nStmts := 1 + rng.Intn(2)
	for si := 0; si < nStmts; si++ {
		d := 1 + rng.Intn(depth)
		st := &ir.Stmt{Line: si + 1, Depth: d, Flops: 1 + rng.Intn(3)}
		st.LHS = randRef(d)
		nr := 1 + rng.Intn(2)
		for r := 0; r < nr; r++ {
			st.Reads = append(st.Reads, randRef(d))
		}
		if rng.Intn(3) == 0 {
			st.Reduce = true
			st.Reads = append(st.Reads, st.LHS)
		}
		nest.Stmts = append(nest.Stmts, st)
	}
	p.Nests = []*ir.Nest{nest}
	return p
}

// TestCountNestTriangularMatchesOracle is the randomized property test of
// the triangular extension: dependent-bound nests under random schemes
// must price word-for-word like the reference enumeration, through both
// production engines, with and without the Section 5 ring pricing.
func TestCountNestTriangularMatchesOracle(t *testing.T) {
	grids := []*grid.Grid{
		grid.New(4, 1), grid.New(1, 4), grid.New(2, 2), grid.New(2, 3), grid.New(6, 1),
	}
	rng := rand.New(rand.NewSource(1993))
	analyticHits := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		g := grids[trial%len(grids)]
		m := 8 + rng.Intn(5)
		bind := map[string]int{"m": m}
		p := randTriangularProgram(rng, m, 2+rng.Intn(2))
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		nest := p.Nests[0]
		schemes := map[string]dist.Scheme{}
		for name, arr := range p.Arrays {
			shape := make([]int, arr.Rank())
			for k := range shape {
				shape[k] = m
			}
			schemes[name] = randScheme(rng, g, shape)
			if err := schemes[name].Validate(g, shape); err != nil {
				t.Fatalf("trial %d: invalid scheme for %s: %v", trial, name, err)
			}
		}
		var opts CountOptions
		switch trial % 5 {
		case 1:
			excl := []string{"A", "C", "B", "X"}[rng.Intn(4)]
			opts.IncludeRead = func(a string) bool { return a != excl }
		case 2:
			opts.SkipReduction = true
			opts.SkipFlops = true
		case 3:
			opts.PipelinedReduction = true
		}

		want, err := CountNestOptsExact(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		gotAn, ok, err := countNestAnalytic(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: analytic: %v", trial, err)
		}
		if ok {
			analyticHits++
			countsEqual(t, "analytic", gotAn, want)
		}
		if t.Failed() {
			t.Fatalf("trial %d: m=%d grid=%s nest=%+v", trial, m, g, nest)
		}
	}
	if analyticHits < trials/4 {
		t.Fatalf("analytic path engaged on only %d/%d trials", analyticHits, trials)
	}
}

// TestCountNestTriangularLargeM drives the closed-form windowed-sum path:
// at m well past the direct-summation cap the per-residue polynomial
// interpolation answers, and must still match the enumeration exactly.
func TestCountNestTriangularLargeM(t *testing.T) {
	grids := []*grid.Grid{grid.New(4, 1), grid.New(2, 2), grid.New(6, 1)}
	rng := rand.New(rand.NewSource(7))
	analyticHits := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		g := grids[trial%len(grids)]
		m := 150 + rng.Intn(120)
		bind := map[string]int{"m": m}
		p := randTriangularProgram(rng, m, 2)
		nest := p.Nests[0]
		schemes := map[string]dist.Scheme{}
		for name, arr := range p.Arrays {
			shape := make([]int, arr.Rank())
			for k := range shape {
				shape[k] = m
			}
			schemes[name] = randScheme(rng, g, shape)
		}
		opts := CountOptions{PipelinedReduction: trial%2 == 0}
		want, err := CountNestOptsExact(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		gotAn, ok, err := countNestAnalytic(p, nest, schemes, g, bind, opts)
		if err != nil {
			t.Fatalf("trial %d: analytic: %v", trial, err)
		}
		if ok {
			analyticHits++
			countsEqual(t, "analytic", gotAn, want)
		}
		if t.Failed() {
			t.Fatalf("trial %d: m=%d grid=%s nest=%+v", trial, m, g, nest)
		}
	}
	if analyticHits < trials/3 {
		t.Fatalf("analytic path engaged on only %d/%d trials", analyticHits, trials)
	}
}

// gaussSchemes is the Section 6 layout family: cyclic rows for the
// elimination arrays on a linear grid.
func gaussSchemes(m, n int) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
	}
}

// gaussSchemes2D maps A/L over a 2-D grid (cyclic rows x block columns)
// with the vectors replicated along the column dimension.
func gaussSchemes2D(m, n1, n2 int) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.BlockContiguous(m, n2, 1), nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.BlockContiguous(m, n2, 1), nil),
		"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: dist.All}),
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: dist.All}),
	}
}

// TestCountNestAnalyticGauss pins the triangular engine to the paper's
// flagship kernel: every gauss nest — the k+1..m elimination updates with
// their below-diagonal L(i,k) band and the j-1..1 back-substitution with
// its anchored reduction — must engage the closed forms (ok=true) and
// agree with the oracle under both reduction pricings.
func TestCountNestAnalyticGauss(t *testing.T) {
	p := ir.Gauss()
	m := 19
	bind := map[string]int{"m": m}
	for _, tc := range []struct {
		name    string
		g       *grid.Grid
		schemes map[string]dist.Scheme
	}{
		{"cyclic-rows", grid.New(4, 1), gaussSchemes(m, 4)},
		{"cyclic-2d", grid.New(2, 2), gaussSchemes2D(m, 2, 2)},
	} {
		for _, pipelined := range []bool{false, true} {
			opts := CountOptions{PipelinedReduction: pipelined}
			for _, nest := range p.Nests {
				want, err := CountNestOptsExact(p, nest, tc.schemes, tc.g, bind, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, ok, err := countNestAnalytic(p, nest, tc.schemes, tc.g, bind, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("%s/%s pipelined=%v: analytic engine declined a triangular nest", tc.name, nest.Label, pipelined)
				}
				countsEqual(t, tc.name+"/"+nest.Label, got, want)
			}
		}
	}
}

// TestCountNestAnalyticGauss2DGrids is the focused send-attribution case:
// gauss's triangular L(i,k) band and A(k,k) diagonal footprints under
// cyclic and block-cyclic row schemes on 2-D grids, at sizes on both
// sides of a block-size step, so the band edges cross some owner cells,
// contain others and miss the rest. Every nest must engage the closed
// forms and agree with the enumeration.
func TestCountNestAnalyticGauss2DGrids(t *testing.T) {
	p := ir.Gauss()
	schemes := func(rows, cols dist.Dim) map[string]dist.Scheme {
		return map[string]dist.Scheme{
			"A": dist.Scheme2D(rows, cols, nil),
			"L": dist.Scheme2D(rows, cols, nil),
			"V": dist.Scheme1D(rows, map[int]int{1: dist.All}),
			"B": dist.Scheme1D(rows, map[int]int{1: 0}),
			"X": dist.Scheme1D(rows, map[int]int{1: dist.All}),
		}
	}
	for _, shape := range [][2]int{{4, 4}, {3, 5}, {2, 8}} {
		g := grid.New(shape[0], shape[1])
		for _, m := range []int{15, 16, 17, 21} {
			bind := map[string]int{"m": m}
			for _, tc := range []struct {
				name    string
				schemes map[string]dist.Scheme
			}{
				{"cyclic/block", schemes(dist.Cyclic(0), dist.BlockContiguous(m, shape[1], 1))},
				{"blockcyclic/block", schemes(dist.BlockCyclic(2, 0), dist.BlockContiguous(m, shape[1], 1))},
				{"cyclic/cyclic", schemes(dist.Cyclic(0), dist.Cyclic(1))},
				{"blockcyclic/blockcyclic", schemes(dist.BlockCyclic(3, 0), dist.BlockCyclic(2, 1))},
			} {
				for _, pipelined := range []bool{false, true} {
					opts := CountOptions{PipelinedReduction: pipelined}
					for _, nest := range p.Nests {
						label := fmt.Sprintf("%s m=%d %s/%s pipelined=%v", g, m, tc.name, nest.Label, pipelined)
						want, err := CountNestOptsExact(p, nest, tc.schemes, g, bind, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got, ok, err := countNestAnalytic(p, nest, tc.schemes, g, bind, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !ok {
							t.Fatalf("%s: analytic engine declined a gauss nest", label)
						}
						countsEqual(t, label, got, want)
					}
				}
			}
		}
	}
}
