// Command dmbench is dmcc's end-to-end benchmark. It drives one of three
// workloads through the public functions of the compiler (core), the
// simulated executor (exec) and the plan-serving daemon (serve), checks
// every output, and prints one JSON result line:
//
//	go run . --workload compile-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs again, alternating
// an untraced and a traced op at every point, and the line carries the
// per-layer metrics reduced from the spans the benchmark recorded around
// its calls into each layer. The spans are written to
// .bench_build/traces/<workload>.csv when the run ends.
//
// Run it from the repository root (it reads testdata/*.f); run.sh builds
// it with every build and temporary file kept under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// short shrinks every point grid to a few cheap points (tests).
	short bool
	// root is the repository root (testdata lives there).
	root string
	// work holds temporary stores and the trace file.
	work string
}

// outcome is one workload run: the ops it attempted, the ones that
// failed or returned a wrong answer, and its metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// failures describes the first few failed checks (stderr only).
	failures []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

var workloads = map[string]func(config) (*outcome, error){
	"compile-mix": compileMix,
	"exec-scale":  execScale,
	"serve-mix":   serveMix,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result shapes an outcome into the printed line: exactly the catalogue
// of the mode, every metric with its unit. A per-layer metric of a
// layer the workload never calls reads 0.
func result(o *outcome, trace bool) (resultLine, error) {
	cat := endToEnd
	if trace {
		cat = perLayer
	}
	line := resultLine{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range cat {
		v, ok := o.metrics[m.name]
		if !ok && !trace {
			return line, fmt.Errorf("workload did not measure %s", m.name)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for name := range o.metrics {
		if _, ok := line.Metrics[name]; !ok {
			return line, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return line, nil
}

func main() {
	workload := flag.String("workload", "", "compile-mix, exec-scale or serve-mix")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "dmbench: usage: --workload %v --seed n --seconds s --trace 0|1\n", names)
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fail(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, root: ".", work: work}
	start := time.Now()
	o, err := run(cfg)
	if err != nil {
		fail(err)
	}
	line, err := result(o, cfg.trace)
	if err != nil {
		fail(err)
	}
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "dmbench: check failed: %s\n", f)
	}
	fmt.Fprintf(os.Stderr, "dmbench: %s seed %d: %d ops attempted, %d failed, %.1fs\n",
		*workload, *seed, o.attempted, o.failed, time.Since(start).Seconds())
	out, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dmbench: %v\n", err)
	os.Exit(1)
}
