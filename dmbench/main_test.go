package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// deterministic are the per-layer metrics that must repeat exactly
// between two runs at one seed.
var deterministic = []string{
	"align.calls", "core.segment_cost.calls", "core.change_cost.calls", "core.loop_carried.calls",
	"cost.analytic_hits", "cost.fastwalk_fallbacks", "cost.exact_fallbacks",
	"core.scheme_sets", "core.plan_cost_geomean", "core.dp_over_whole",
	"exec.transport_messages", "exec.transport_words", "exec.max_pair_words", "exec.max_msg_words",
	"makespan_geomean", "exec.naive_makespan_geomean", "core.predicted_over_simulated",
	"artifact.hits", "artifact.misses", "artifact.puts",
	"serve.compiles", "serve.compile_hits", "serve.cost_evals",
}

// runShort runs one workload at its tiny size.
func runShort(t *testing.T, name string, seed int64, trace bool) resultLine {
	t.Helper()
	cfg := config{seed: seed, seconds: 0.01, trace: trace, short: true, root: "..",
		work: filepath.Join(t.TempDir(), "work")}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		t.Fatal(err)
	}
	o, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	line, err := result(o, trace)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", name, trace, line.Attempted, line.Failed, o.failures)
	}
	return line
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced
// and traced, and checks that each catalogue metric comes out with its
// unit, that every end-to-end metric is positive and that no op failed.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			line := runShort(t, name, 1, trace)
			cat := endToEnd
			if trace {
				cat = perLayer
			}
			if len(line.Metrics) != len(cat) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(line.Metrics), len(cat))
			}
			for _, m := range cat {
				v, ok := line.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, v, m.unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}

// TestDeterministicMetricsRepeat is the determinism witness: two traced
// runs at one seed agree exactly on every deterministic metric, and
// another seed emits the same metric names.
func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := runShort(t, name, 3, true), runShort(t, name, 3, true)
		for _, m := range deterministic {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v, then %v at the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		c := runShort(t, name, 4, true)
		for m := range a.Metrics {
			if _, ok := c.Metrics[m]; !ok {
				t.Errorf("%s: seed 4 does not emit %s", name, m)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue checks that BENCHMARK.json declares
// exactly the workloads and metrics this program emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i] != (entry{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
