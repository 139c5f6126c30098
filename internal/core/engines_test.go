package core

import (
	"os"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/parse"
)

// TestDeclinedNestsFallBackToExact: testdata/chain.f's first nest is a
// chained triangle (k starts at j, whose own range starts at i), which
// the closed form declines; its second nest is plain. The declined nest
// is priced by the reference enumerator and counted as an exact
// fallback, the plain one as an analytic hit, and the plan is the one
// the all-exact ablation chooses.
func TestDeclinedNestsFallBackToExact(t *testing.T) {
	const m, n = 8, 4
	src, err := os.ReadFile("../../testdata/chain.f")
	if err != nil {
		t.Fatal(err)
	}
	compile := func(exact bool) (*DPResult, map[string]int64) {
		p, err := parse.Parse(string(src))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		c := NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
		c.ExactNestCount = exact
		c.Engines = &EngineStats{}
		res, err := c.Compile()
		if err != nil {
			t.Fatalf("exact=%v: %v", exact, err)
		}
		return res.DP, c.Engines.Snapshot()
	}
	dp, eng := compile(false)
	if eng["exact_fallbacks"] == 0 || eng["analytic_hits"] == 0 {
		t.Fatalf("engine counters %v, want both analytic hits and exact fallbacks", eng)
	}
	want, _ := compile(true)
	if dp.MinimumCost != want.MinimumCost {
		t.Fatalf("MinimumCost = %g, exact engine %g", dp.MinimumCost, want.MinimumCost)
	}
	if len(dp.Segments) != len(want.Segments) {
		t.Fatalf("%d segments, exact engine %d", len(dp.Segments), len(want.Segments))
	}
	for i, seg := range dp.Segments {
		w := want.Segments[i]
		if seg.Start != w.Start || seg.Len != w.Len || seg.M != w.M || seg.ChangeIn != w.ChangeIn ||
			seg.Schemes.String() != w.Schemes.String() {
			t.Errorf("segment %d = %+v %s, exact engine %+v %s", i, seg, seg.Schemes, w, w.Schemes)
		}
	}
}
