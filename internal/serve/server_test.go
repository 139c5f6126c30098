package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// newTestServer builds a Server over a temp store and an httptest
// frontend.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *artifact.Store) {
	t.Helper()
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Warnf = t.Logf
	s, err := New(Config{Store: store, Jobs: 1, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, store
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func compileProg(t *testing.T, ts *httptest.Server, prog string, m, n int) CompileResponse {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Prog: prog, M: m, N: n})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compile %s: %s: %s", prog, resp.Status, raw)
	}
	var cr CompileResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decoding compile response: %v", err)
	}
	return cr
}

// A frozen plan served over the HTTP boundary must thaw into an
// evaluator that prices every size exactly like the in-process one —
// serve -> fetch -> Thaw -> EvalAt parity, across the kernel set.
func TestPlanRoundtripParity(t *testing.T) {
	const m, n = 16, 4
	progs := map[string]func() *ir.Program{
		"jacobi": ir.Jacobi, "sor": ir.SOR, "gauss": ir.Gauss,
	}
	_, ts, _ := newTestServer(t)
	for name, mk := range progs {
		cr := compileProg(t, ts, name, m, n)
		if cr.Cached {
			t.Fatalf("%s: first compile reported cached", name)
		}

		resp, raw := getBody(t, ts.URL+"/plan/"+cr.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET /plan: %s: %s", name, resp.Status, raw)
		}
		var fp core.FrozenPlan
		if err := json.Unmarshal(raw, &fp); err != nil {
			t.Fatalf("%s: decoding served plan: %v", name, err)
		}

		thawC := core.NewCompiler(mk(), cost.Unit(), map[string]int{"m": m}, n)
		thawed, err := core.Thaw(thawC, &fp)
		if err != nil {
			t.Fatalf("%s: thawing served plan: %v", name, err)
		}
		refC := core.NewCompiler(mk(), cost.Unit(), map[string]int{"m": m}, n)
		refC.Jobs = 1
		ref, _, _, err := sweep.PlanFor(refC, m, sweep.Options{})
		if err != nil {
			t.Fatalf("%s: in-process evaluator: %v", name, err)
		}
		for _, at := range []int{m, 24, 32, 64} {
			want, err := ref.EvalAt(at)
			if err != nil {
				t.Fatalf("%s m=%d: ref EvalAt: %v", name, at, err)
			}
			got, err := thawed.EvalAt(at)
			if err != nil {
				t.Fatalf("%s m=%d: thawed EvalAt: %v", name, at, err)
			}
			if got != want {
				t.Fatalf("%s m=%d: thawed %+v != in-process %+v", name, at, got, want)
			}
			// And the daemon's own /cost endpoint agrees.
			resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, cr.ID, at))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s m=%d: GET /cost: %s: %s", name, at, resp.Status, raw)
			}
			var rep CostReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Total != want.Total() {
				t.Fatalf("%s m=%d: /cost total %g != %g", name, at, rep.Total, want.Total())
			}
		}
	}
}

// The second compile of a configuration is a warm hit, and warm /cost
// traffic runs with zero store misses and zero cold compiles — the
// counter-verified "never re-run the DP" property.
func TestWarmPathCounters(t *testing.T) {
	s, ts, _ := newTestServer(t)
	first := compileProg(t, ts, "jacobi", 16, 4)
	second := compileProg(t, ts, "jacobi", 16, 4)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	ms := s.Metrics()
	if ms.Server.Compiles != 1 || ms.Server.CompileHits != 1 {
		t.Fatalf("compiles=%d hits=%d, want 1, 1", ms.Server.Compiles, ms.Server.CompileHits)
	}

	missesBefore := ms.Store.Misses
	evalsBefore := ms.Server.CostEvals
	for i := 0; i < 50; i++ {
		resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, first.ID, 16+8*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cost #%d: %s: %s", i, resp.Status, raw)
		}
	}
	ms = s.Metrics()
	if ms.Store.Misses != missesBefore {
		t.Fatalf("warm /cost traffic caused %d store misses", ms.Store.Misses-missesBefore)
	}
	if ms.Server.Compiles != 1 {
		t.Fatalf("warm /cost traffic re-compiled: compiles=%d", ms.Server.Compiles)
	}
	if ms.Server.CostEvals != evalsBefore+50 {
		t.Fatalf("cost_evals=%d, want %d", ms.Server.CostEvals, evalsBefore+50)
	}
	if ep := ms.Endpoints["cost"]; ep.Requests < 50 || ep.P99us <= 0 {
		t.Fatalf("cost endpoint snapshot = %+v", ep)
	}
}

// stripSchema / setSchema rewrite the schema field of a frozen-plan
// JSON document, emulating payloads written by older builds.
func stripSchema(t *testing.T, planRaw []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(planRaw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "schema")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func setSchema(t *testing.T, planRaw []byte, v int) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(planRaw, &m); err != nil {
		t.Fatal(err)
	}
	m["schema"] = json.RawMessage(fmt.Sprintf("%d", v))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Malformed and stale frozen plans crossing the HTTP boundary must be
// clean 4xx responses — never panics, never 5xx.
func TestMalformedPlanRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cr := compileProg(t, ts, "jacobi", 16, 4)

	// Fetch the real plan so the mutations below are realistic.
	_, planRaw := getBody(t, ts.URL+"/plan/"+cr.ID)

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"not json at all", `{"prog":"jacobi","m":16,"n":4,"plan":"not-a-plan"}`, http.StatusUnprocessableEntity},
		{"wrong baseM", `{"prog":"jacobi","m":32,"n":4,"plan":` + string(planRaw) + `}`, http.StatusUnprocessableEntity},
		{"segments do not tile", `{"prog":"jacobi","m":16,"n":4,"plan":{"schema":2,"baseM":16,"segments":[{"start":5,"len":1,"shape":[1,4]}]}}`, http.StatusUnprocessableEntity},
		// A plan frozen before the symbolic-ChangeCost schema bump (no
		// schema field, or an older number) must be refused outright —
		// serving it would silently revive the numeric boundary pricing.
		{"pre-bump plan (no schema)", `{"prog":"jacobi","m":16,"n":4,"plan":` + string(stripSchema(t, planRaw)) + `}`, http.StatusUnprocessableEntity},
		{"pre-bump plan (schema 1)", `{"prog":"jacobi","m":16,"n":4,"plan":` + string(setSchema(t, planRaw, 1)) + `}`, http.StatusUnprocessableEntity},
		{"empty plan", `{"prog":"jacobi","m":16,"n":4}`, http.StatusBadRequest},
		{"unknown program", `{"prog":"nope","m":16,"n":4,"plan":` + string(planRaw) + `}`, http.StatusBadRequest},
		{"garbage body", `{{{`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %q not a clean JSON error", tc.name, raw)
		}
	}

	// A well-formed plan installs fine and prices identically.
	resp, raw := postJSON(t, ts.URL+"/plan", json.RawMessage(
		`{"prog":"jacobi","m":16,"n":4,"plan":`+string(planRaw)+`}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid install: %s: %s", resp.Status, raw)
	}
	var ir2 CompileResponse
	if err := json.Unmarshal(raw, &ir2); err != nil {
		t.Fatal(err)
	}
	if ir2.ID != cr.ID || ir2.Cost.Total != cr.Cost.Total {
		t.Fatalf("installed plan id/cost = %s/%g, want %s/%g", ir2.ID, ir2.Cost.Total, cr.ID, cr.Cost.Total)
	}
}

// Source whose compile panics inside a counting worker (an A(0,0) read
// of a 1-based array) gets a 422 back, and the daemon keeps serving.
func TestCompilePanicIsClientError(t *testing.T) {
	s, ts, _ := newTestServer(t)
	// A parse error is a rejected input, not a compiler panic.
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Source: "PROGRAM broken\nDO\n", M: 64, N: 8})
	if resp.StatusCode/100 != 4 {
		t.Fatalf("POST /compile parse error: %s: %s", resp.Status, raw)
	}
	if got := s.Metrics().Server.CompilePanics; got != 0 {
		t.Fatalf("compile_panics = %d after a parse error, want 0", got)
	}
	src := "PROGRAM oob\nPARAM m\nREAL A(m,m), X(m)\nDO 5 i = 1, m\n" +
		"3   X(i) = A(0,0) + A(i,i)\n5 CONTINUE\nEND\n"
	resp, raw = postJSON(t, ts.URL+"/compile", CompileRequest{Source: src, M: 64, N: 8})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("POST /compile oob: %s: %s", resp.Status, raw)
	}
	if got := s.Metrics().Server.CompilePanics; got != 1 {
		t.Fatalf("compile_panics = %d after a panicking compile, want 1", got)
	}
	compileProg(t, ts, "jacobi", 16, 4)
}

// Bad query parameters and unknown plan handles are 4xx, not panics.
func TestCostParamValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cr := compileProg(t, ts, "sor", 16, 4)
	cases := []struct {
		url    string
		status int
	}{
		{"/cost?key=" + cr.ID + "&m=abc", http.StatusBadRequest},
		{"/cost?key=" + cr.ID + "&m=0", http.StatusBadRequest},
		{"/cost?key=" + cr.ID + "&m=9999999999", http.StatusBadRequest},
		{"/cost?m=16", http.StatusBadRequest},
		{"/cost?key=deadbeef&m=16", http.StatusNotFound},
		{"/plan/deadbeef", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, raw := getBody(t, ts.URL+tc.url)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.url, resp.StatusCode, tc.status, raw)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Prog: "jacobi", M: -1, N: 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative m: %s: %s", resp.Status, raw)
	}
}

// The ablation engines are bench hooks, not a public knob: a body that
// asks for one is an unknown field, so the uncached exact path is never
// reachable over HTTP.
func TestCompileRejectsEngineField(t *testing.T) {
	s, ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"prog":"jacobi","m":16,"n":4,"engine":"pr1"}`,
		`{"prog":"jacobi","m":16,"n":4,"engine":"prechange"}`,
	} {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}
	if n := s.Metrics().Server.Compiles; n != 0 {
		t.Fatalf("rejected bodies ran %d compiles", n)
	}
}

// A plan evicted from disk is still served: /cost prices it from the
// in-memory evaluator and /plan re-freezes it on demand.
func TestServingSurvivesEviction(t *testing.T) {
	_, ts, store := newTestServer(t)
	cr := compileProg(t, ts, "jacobi", 16, 4)
	if _, err := store.GC(0); err != nil {
		t.Fatal(err)
	}
	resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=32", ts.URL, cr.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cost after eviction: %s: %s", resp.Status, raw)
	}
	resp, raw = getBody(t, ts.URL+"/plan/"+cr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan after eviction: %s: %s", resp.Status, raw)
	}
	var fp core.FrozenPlan
	if err := json.Unmarshal(raw, &fp); err != nil {
		t.Fatalf("re-frozen plan does not decode: %v", err)
	}
	if fp.BaseM != 16 || len(fp.Segments) == 0 {
		t.Fatalf("re-frozen plan = %+v", fp)
	}
}

// The load harness end to end against an in-process daemon: exact
// request counts, zero errors, zero compile misses after warm-up, and
// rows shaped for the baseline gate.
func TestLoadHarness(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cfg := LoadConfig{
		BaseURL: ts.URL, Progs: []string{"jacobi", "sor"},
		M: 16, N: 4, Requests: 200, Concurrency: 4, Seed: 1,
	}
	res, sums, err := Harness(cfg, []string{"hotkey", "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(sums) != 2 {
		t.Fatalf("rows=%d sums=%d, want 2, 2", len(res.Rows), len(sums))
	}
	for _, sum := range sums {
		if sum.Errors != 0 {
			t.Fatalf("%s: %d errors", sum.Dist, sum.Errors)
		}
		if sum.MissesAfterWarm != 0 {
			t.Fatalf("%s: %d misses after warm-up", sum.Dist, sum.MissesAfterWarm)
		}
		if sum.Requests != cfg.Requests {
			t.Fatalf("%s: %d requests, want %d", sum.Dist, sum.Requests, cfg.Requests)
		}
		if sum.P99 <= 0 || sum.P99 < sum.P50 {
			t.Fatalf("%s: p50=%v p99=%v", sum.Dist, sum.P50, sum.P99)
		}
	}
	for _, row := range res.Rows {
		if row.Metrics["errors"] != 0 || row.Metrics["misses_after_warm"] != 0 {
			t.Fatalf("row %s gateable metrics = %v", row.Variant, row.Metrics)
		}
		if row.Metrics["p99_ns"] <= 0 || row.Metrics["rps_wall"] <= 0 {
			t.Fatalf("row %s wall metrics = %v", row.Variant, row.Metrics)
		}
	}
	// The emitted JSON parses as its own baseline with zero regressions.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	base := t.TempDir() + "/BENCH_serve.json"
	if err := os.WriteFile(base, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	regs, _, err := sweep.Compare(base, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}

// TestGaussCostColdMicroseconds: with the symbolic ChangeCost fit, a
// gauss plan's two-segment boundary is priced by polynomial evaluation,
// so a COLD /cost query — a size never priced before, no memo — must
// come back in well under a millisecond. This is the acceptance check
// for "no numeric RedistLoads on the query path": the numeric
// calculator alone costs milliseconds per boundary at these sizes.
func TestGaussCostColdMicroseconds(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cr := compileProg(t, ts, "gauss", 256, 16)
	if cr.FitErr != "" {
		t.Fatalf("gauss fit declined: %s", cr.FitErr)
	}
	// Every m below is distinct and previously unseen, so each EvalNs is
	// a cold evaluation; take the minimum to shed scheduler noise.
	best := int64(1 << 62)
	for _, m := range []int{257, 311, 512, 1000, 4096, 65536} {
		resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, cr.ID, m))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cost m=%d: %s: %s", m, resp.Status, raw)
		}
		var rep CostReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Total <= 0 {
			t.Fatalf("m=%d: nonpositive total %g", m, rep.Total)
		}
		if rep.EvalNs < best {
			best = rep.EvalNs
		}
	}
	if best >= int64(time.Millisecond) {
		t.Fatalf("cold gauss /cost evaluation took %dns at best; want < 1ms", best)
	}
}

// TestMetricsEngineCounters: the daemon's compiles run entirely on the
// analytic counting engine for the builtin programs — the /metrics
// document proves it, and an exact fallback there is a counting-engine
// regression. The snapshot names exactly the two engines.
func TestMetricsEngineCounters(t *testing.T) {
	s, ts, _ := newTestServer(t)
	compileProg(t, ts, "gauss", 64, 16)
	compileProg(t, ts, "jacobi", 16, 4)
	eng := s.Metrics().Server.Engines
	if eng["analytic_hits"] == 0 {
		t.Fatalf("no analytic hits recorded: %v", eng)
	}
	if eng["exact_fallbacks"] != 0 {
		t.Fatalf("builtin compiles fell back: %v", eng)
	}
	var keys []string
	for k := range eng {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[analytic_hits exact_fallbacks]" {
		t.Fatalf("engine counter keys = %v, want [analytic_hits exact_fallbacks]", keys)
	}
	resp, raw := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Server.Engines["analytic_hits"] != eng["analytic_hits"] {
		t.Fatalf("served engines %v != snapshot %v", ms.Server.Engines, eng)
	}
}
