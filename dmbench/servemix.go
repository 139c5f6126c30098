package main

// serve-mix: closed loop, two clients on two keep-alive loopback
// connections to an in-process daemon (serve.New over a temporary
// artifact.Open store, as dmload -self builds it). Reads are GET /cost
// on a random warmed plan at a size no earlier read of that plan used,
// so the per-(plan, m) memo never hits and every read runs EvalAt. Each
// client sends one write per pass: POST /compile of a (program, m, N)
// never compiled before, which runs the DP, fit, freeze and store put.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/serve"
	"dmcc/internal/sweep"
)

const (
	serveClients = 2
	serveBaseM   = 64
)

var servePrograms = map[string]func() *ir.Program{"jacobi": ir.Jacobi, "sor": ir.SOR, "gauss": ir.Gauss}

type servePlan struct {
	prog string
	n    int
	id   string
}

func (p servePlan) String() string { return fmt.Sprintf("%s N=%d", p.prog, p.n) }

// serveCombos are the warmed (program, N) pairs; writes cycle over them
// at fresh sizes.
func serveCombos(cfg config) []servePlan {
	ns := []int{4, 8, 16}
	if cfg.short {
		ns = []int{4}
	}
	var out []servePlan
	for _, prog := range []string{"jacobi", "sor", "gauss"} {
		for _, n := range ns {
			out = append(out, servePlan{prog: prog, n: n})
		}
	}
	return out
}

// daemon is an in-process dmccd on a loopback port.
type daemon struct {
	dir   string
	srv   *serve.Server
	hs    *http.Server
	url   string
	done  chan struct{}
	plans []servePlan
}

// startDaemon opens a fresh store, serves it and warms every combo at
// the base size through POST /compile.
func startDaemon(cfg config) (*daemon, error) {
	dir, err := os.MkdirTemp(cfg.work, "serve-")
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: store})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, p := range serveCombos(cfg) {
		cr, err := postCompile(cl, d.url, p.prog, serveBaseM, p.n)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warming %s: %w", p, err)
		}
		p.id = cr.ID
		d.plans = append(d.plans, p)
	}
	return d, nil
}

func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
	os.RemoveAll(d.dir)
}

// newClient holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   time.Minute,
	}
}

func postCompile(cl *http.Client, url, prog string, m, n int) (serve.CompileResponse, error) {
	var cr serve.CompileResponse
	body, err := json.Marshal(serve.CompileRequest{Prog: prog, M: m, N: n})
	if err != nil {
		return cr, err
	}
	resp, err := cl.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return cr, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return cr, err
	}
	if resp.StatusCode != http.StatusOK {
		return cr, fmt.Errorf("POST /compile: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &cr); err != nil {
		return cr, err
	}
	if cr.ID == "" {
		return cr, fmt.Errorf("POST /compile: reply without a plan id")
	}
	return cr, nil
}

// getCost is one read; rec (nil when untraced) records the round trip
// and the decode as spans.
func getCost(cl *http.Client, url string, rec *recorder) (serve.CostReport, error) {
	var rep serve.CostReport
	var raw []byte
	var status int
	roundTrip := func() error {
		resp, err := cl.Get(url)
		if err != nil {
			return err
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		return err
	}
	err := rec.do("serve.request", roundTrip)
	if err == nil && status == http.StatusOK {
		err = rec.do("serve.decode", func() error { return json.Unmarshal(raw, &rep) })
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /cost: status %d: %s", status, bytes.TrimSpace(raw))
	}
	return rep, err
}

// costSample is a read kept for re-pricing after the run.
type costSample struct {
	plan  int
	m     int
	total float64
}

// serveClient is one closed-loop caller's log.
type serveClient struct {
	id       int
	rng      *rand.Rand
	next     []int // per plan: reads sent, so sizes never repeat
	writes   int
	passes   int
	reads    []float64 // untraced read latencies, µs
	writeMs  []float64
	samples  []costSample
	rec      *recorder
	failures []string
	failed   int
	ops      int
}

func (c *serveClient) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// serveLoad holds the seeded parameters both clients share.
type serveLoad struct {
	d       *daemon
	perPass int
	readM0  int   // reads of a plan start here and step by 2 per client
	writeM0 int   // writes start here, one size up per round of combos
	combos  []int // write order over d.plans
	trace   bool
}

// readM is client c's k-th size for one plan: distinct across clients
// and reads, above every warmed base size.
func (l *serveLoad) readM(c, k int) int { return l.readM0 + 2*k + c }

func (l *serveLoad) pass(c *serveClient, cl *http.Client) {
	write := c.rng.Intn(l.perPass)
	for i := 0; i < l.perPass; i++ {
		c.ops++
		if i == write {
			// The k-th write of the run: a (combo, m) pair no earlier
			// write used, with m bounded so that a write costs the same
			// however long the run is.
			k := serveClients*c.writes + c.id
			p := l.d.plans[l.combos[k%len(l.combos)]]
			m := l.writeM0 + k/len(l.combos)
			c.writes++
			t0 := time.Now()
			cr, err := postCompile(cl, l.d.url, p.prog, m, p.n)
			c.writeMs = append(c.writeMs, ms(time.Since(t0)))
			if err != nil {
				c.fail("write %s m=%d: %v", p, m, err)
			} else if cr.Cached {
				c.fail("write %s m=%d: served from the store, want a cold compile", p, m)
			}
			continue
		}
		plan := c.rng.Intn(len(l.d.plans))
		m := l.readM(c.id, c.next[plan])
		c.next[plan]++
		url := fmt.Sprintf("%s/cost?key=%s&m=%d", l.d.url, l.d.plans[plan].id, m)
		var rec *recorder
		if l.trace && i%2 == 1 {
			rec = c.rec
		}
		var rep serve.CostReport
		var err error
		if rec != nil {
			id := rec.beginOp()
			rep, err = getCost(cl, url, rec)
			rec.end(id)
		} else {
			t0 := time.Now()
			rep, err = getCost(cl, url, nil)
			c.reads = append(c.reads, float64(time.Since(t0))/1e3)
		}
		switch {
		case err != nil:
			c.fail("read %s m=%d: %v", l.d.plans[plan], m, err)
		case rep.M != m || !(rep.Total > 0):
			c.fail("read %s m=%d: reply for m=%d, total %g", l.d.plans[plan], m, rep.M, rep.Total)
		case i%997 == 0 && len(c.samples) < 12:
			c.samples = append(c.samples, costSample{plan, m, rep.Total})
		}
	}
}

func serveMix(cfg config) (*outcome, error) {
	d, setup, err := medianSetup(func() (*daemon, error) { return startDaemon(cfg) }, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	rng := rand.New(rand.NewSource(cfg.seed))
	load := &serveLoad{d: d, perPass: 5000, readM0: 300 + rng.Intn(2000),
		writeM0: serveBaseM + 1 + rng.Intn(8), combos: rng.Perm(len(d.plans)), trace: cfg.trace}
	if cfg.short {
		load.perPass = 200
	}
	clients := make([]*serveClient, serveClients)
	for c := range clients {
		clients[c] = &serveClient{id: c, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(c))),
			next: make([]int, len(d.plans)), rec: newRecorder(time.Now())}
	}

	before := d.srv.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for c.passes == 0 || time.Since(start) < limit {
				load.pass(c, cl)
				c.passes++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	after := d.srv.Metrics()

	o := &outcome{}
	var reads, writes []float64
	ops, npasses := 0, 0
	for _, c := range clients {
		o.attempted += c.ops
		o.failed += c.failed
		o.failures = append(o.failures, c.failures...)
		ops += c.ops
		npasses += c.passes
		reads = append(reads, c.reads...)
		writes = append(writes, c.writeMs...)
	}
	if err := repriceSamples(d, clients, o); err != nil {
		return nil, err
	}

	if !cfg.trace {
		o.set("setup_s", setup)
		o.set("op_ms_p50", quantile(reads, 0.5)/1e3)
		o.set("op_ms_p90", quantile(reads, 0.9)/1e3)
		o.set("ops_per_s", float64(ops)/elapsed.Seconds())
		return o, nil
	}

	recs := make([]*recorder, len(clients))
	for k, c := range clients {
		recs[k] = c.rec
	}
	lt := reduce(recs...)
	o.check(lt.mismatches == 0, "%d traced ops whose span self times do not add up to the op", lt.mismatches)
	var rtt []float64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.name == "serve.request" {
				rtt = append(rtt, float64(s.end-s.start)/1e3)
			}
		}
	}
	o.set("serve.rtt_us.p50", quantile(rtt, 0.5))
	o.set("serve.rtt_us.p99", quantile(rtt, 0.99))
	o.set("cost_us_p99", quantile(reads, 0.99))
	o.set("compile_req_ms_p50", median(writes))
	o.set("serve.server_us.p50", after.Endpoints["cost"].P50us)
	o.set("serve.alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(ops))
	perPass := func(a, b int64) float64 { return float64(a-b) / float64(npasses) }
	o.set("artifact.hits", perPass(after.Store.Hits, before.Store.Hits))
	o.set("artifact.misses", perPass(after.Store.Misses, before.Store.Misses))
	o.set("artifact.puts", perPass(after.Store.Puts, before.Store.Puts))
	o.set("serve.compiles", perPass(after.Server.Compiles, before.Server.Compiles))
	o.set("serve.compile_hits", perPass(after.Server.CompileHits, before.Server.CompileHits))
	o.set("serve.cost_evals", perPass(after.Server.CostEvals, before.Server.CostEvals))
	readsMs := make([]float64, len(reads))
	for i, r := range reads {
		readsMs[i] = r / 1e3
	}
	o.set("trace.overhead_pct", overheadPct(lt.opMs(), readsMs))
	if err := serveDirect(cfg, load, o); err != nil {
		return nil, err
	}
	if err := writeSpans(traceFile(cfg, "serve-mix"), recs...); err != nil {
		return nil, err
	}
	return o, nil
}

// repriceSamples checks sampled /cost totals against a numeric
// re-pricing through an unfitted evaluator at the same size.
func repriceSamples(d *daemon, clients []*serveClient, o *outcome) error {
	evals := map[int]*core.PlanEvaluator{}
	for _, c := range clients {
		for _, s := range c.samples {
			pe, ok := evals[s.plan]
			if !ok {
				p := d.plans[s.plan]
				var err error
				pe, err = core.NewPlanEvaluator(core.NewCompiler(servePrograms[p.prog](), cost.Unit(), map[string]int{"m": serveBaseM}, p.n))
				if err != nil {
					return fmt.Errorf("re-pricing %s: %w", p, err)
				}
				evals[s.plan] = pe
			}
			pc, err := pe.EvalAt(s.m)
			o.check(err == nil && pc.Total() == s.total,
				"re-pricing %s m=%d: numeric %g (err %v), served %g", d.plans[s.plan], s.m, pc.Total(), err, s.total)
		}
	}
	return nil
}

// serveDirect times the serve path's layers without the network: the
// daemon's handler into a recorder, sweep.PlanFor into a fresh store,
// and EvalAt on the evaluators PlanFor returns.
func serveDirect(cfg config, l *serveLoad, o *outcome) error {
	calls := 4000
	if cfg.short {
		calls = 200
	}
	h := l.d.srv.Handler()
	// Sizes above every read the clients sent, so the memo stays cold.
	m0 := l.readM(0, 1<<16)
	var handler []float64
	for k := 0; k < calls; k++ {
		p := l.d.plans[k%len(l.d.plans)]
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/cost?key=%s&m=%d", p.id, m0+k), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0))/1e3)
		o.check(rec.Code == http.StatusOK, "handler %s: status %d", p, rec.Code)
	}
	o.set("serve.handler_us.p50", median(handler))

	dir, err := os.MkdirTemp(cfg.work, "planfor-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	var planFor, evalAt []float64
	for _, prog := range []string{"jacobi", "sor", "gauss"} {
		c := core.NewCompiler(servePrograms[prog](), cost.Unit(), map[string]int{"m": serveBaseM}, 8)
		t0 := time.Now()
		pe, _, cached, err := sweep.PlanFor(c, serveBaseM, sweep.Options{Cache: store})
		planFor = append(planFor, ms(time.Since(t0)))
		o.check(err == nil && !cached, "PlanFor %s: cached=%v err=%v", prog, cached, err)
		if err != nil || cached {
			continue
		}
		for k := 0; k < calls; k++ {
			t0 := time.Now()
			_, err := pe.EvalAt(m0 + k)
			evalAt = append(evalAt, float64(time.Since(t0)))
			if err != nil {
				o.check(false, "EvalAt %s m=%d: %v", prog, m0+k, err)
			}
		}
	}
	o.set("sweep.plan_for_ms.p50", median(planFor))
	o.set("core.evalat_ns.p50", median(evalAt))
	return nil
}
