package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a call into a public function.
type span struct {
	name       string
	op         int // id of the traced op the span belongs to
	parent     int // index of the enclosing span; -1 for an op's root
	start, end time.Duration
}

// recorder keeps the spans of one goroutine in memory. Spans nest: a
// span begun while another is open is its child.
type recorder struct {
	epoch time.Time
	spans []span
	cur   int // innermost open span, -1 when none
	ops   int
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch, cur: -1} }

// beginOp opens the root span of a new traced op.
func (r *recorder) beginOp() int {
	r.ops++
	r.spans = append(r.spans, span{name: "op", op: r.ops, parent: -1, start: time.Since(r.epoch)})
	r.cur = len(r.spans) - 1
	return r.cur
}

func (r *recorder) begin(name string) int {
	r.spans = append(r.spans, span{name: name, op: r.ops, parent: r.cur, start: time.Since(r.epoch)})
	r.cur = len(r.spans) - 1
	return r.cur
}

func (r *recorder) end(id int) {
	r.spans[id].end = time.Since(r.epoch)
	r.cur = r.spans[id].parent
}

// do records fn as one span. A nil recorder just calls fn, so untraced
// and traced runs share one code path.
func (r *recorder) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	id := r.begin(name)
	err := fn()
	r.end(id)
	return err
}

// layerTotals is the reduction of a set of spans: per span name, the
// summed self time and the number of spans.
type layerTotals struct {
	self  map[string]time.Duration
	calls map[string]int
	// opWall are the durations of the op roots, in recording order.
	opWall []time.Duration
	// mismatches counts ops whose spans' self times do not add up to
	// the op's wall time.
	mismatches int
}

// reduce computes every span's self time — its duration minus the part
// of it its children cover — and sums them per name. For each op it
// checks that the self times of the op's spans add up to the op root's
// duration.
func reduce(recs ...*recorder) layerTotals {
	t := layerTotals{self: map[string]time.Duration{}, calls: map[string]int{}}
	for _, r := range recs {
		children := make([][]int, len(r.spans))
		for i, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], i)
			}
		}
		opSelf := map[int]time.Duration{}
		for i, s := range r.spans {
			self := s.end - s.start - covered(r.spans, s, children[i])
			t.self[s.name] += self
			t.calls[s.name]++
			opSelf[s.op] += self
		}
		for _, s := range r.spans {
			if s.parent < 0 {
				t.opWall = append(t.opWall, s.end-s.start)
				if opSelf[s.op] != s.end-s.start {
					t.mismatches++
				}
			}
		}
	}
	return t
}

// opMs are the op roots' durations in ms.
func (t layerTotals) opMs() []float64 {
	out := make([]float64, len(t.opWall))
	for i, w := range t.opWall {
		out[i] = ms(w)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, parent span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, reach time.Duration
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			total += x[1] - lo
		}
		reach = max(reach, x[1])
	}
	return total
}

// writeSpans writes every span as one CSV line (recorder, op, parent,
// name, start and end in ns since the run's epoch).
func writeSpans(path string, recs ...*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rec,op,parent,name,start_ns,end_ns")
	for k, r := range recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", k, s.op, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFile is where a traced run writes its spans; each traced run of
// a workload replaces the previous run's file.
func traceFile(cfg config, workload string) string {
	return filepath.Join(cfg.work, "..", "traces", workload+".csv")
}

// overheadPct compares the median traced op with the median untraced op.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (median(traced)/u - 1)
}
