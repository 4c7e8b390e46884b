// Command perfbench is the repository benchmark. It runs one named
// workload against the public maya library and the real maya-serve
// handler, checks the answers, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured
// with nothing but timers around the calls a user makes. With
// --trace 1 the same inputs run through a decomposition of those
// calls into each layer's public functions, with a span around each,
// and the result holds the per-layer metrics. README.md lists every
// metric, its unit and direction, and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload
// reports every one of them; README.md maps each to the workload's
// own quantity (for example cpu_p50_ref is one cold prediction on
// predict, one recipe search on search, one HTTP request on serve).
// Operation costs are CPU time in units of the host reference (see
// hostref.go); setup_s is CPU seconds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"cpu_p50_ref", "ref"},
	{"cpu_tail_ref", "ref"},
	{"error_pct", "%"},
	{"best_mfu", "ratio"},
	{"good_share", "ratio"},
}

// perLayer lists the metrics of a traced run. Every workload reports
// every one; a layer the workload does not reach reports zero. Busy
// times and counts are per end-to-end operation, so they split it
// and compare across runs of different lengths.
var perLayer = []metricDef{
	{"capture.calls", "count/op"},
	{"capture.busy_ms", "ms"},
	{"capture.p50_ms", "ms"},
	{"capture.ops_per_ms", "1/ms"},
	{"capture.emulations_per_rank", "ratio"},
	{"capture_cache.hit_ratio", "ratio"},
	{"capture_cache.evictions", "count/op"},
	{"estimate.plan_busy_ms", "ms"},
	{"estimate.fill_busy_ms", "ms"},
	{"estimate.plans", "count/op"},
	{"suite.train_ms", "ms"},
	{"oracle.annotate_busy_ms", "ms"},
	{"oracle.measure_busy_ms", "ms"},
	{"sim.runs", "count/op"},
	{"sim.busy_ms", "ms"},
	{"sim.ns_per_op", "ns"},
	{"sim.truncated_share", "ratio"},
	{"search.trials", "count/op"},
	{"search.executed", "count/op"},
	{"search.verdict", "count/op"},
	{"search.dominated", "count/op"},
	{"search.cached", "count/op"},
	{"search.invalid", "count/op"},
	{"search.completed_share", "ratio"},
	{"search.eval_busy_ms", "ms"},
	{"search.loop_self_ms", "ms"},
	{"serve.queue_wait_mean_ms", "ms"},
	{"serve.executed", "count/op"},
	{"serve.coalesced", "count/op"},
	{"serve.shed", "count/op"},
	{"serve.degraded", "count/op"},
	{"serve.rejected", "count/op"},
	{"serve.http_ms", "ms"},
	{"serve.stack_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"runtime.peak_rss_mb", "MB"},
	{"host.ref_ms", "ms"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// outDir receives answer digests and span dumps.
	outDir string
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	// problems lists every failed answer check; any entry makes the
	// run incorrect.
	problems []string
	metrics  map[string]float64
	// digest canonically renders the run's answers; equal seeds must
	// give equal digests.
	digest string
	spans  *tracer
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"predict": runPredict,
	"search":  runSearch,
	"serve":   runServe,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: predict, search or serve")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long the timed phase runs")
	traced := flag.Int("trace", 0, "1 runs the traced decomposition and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown --workload %q (have predict, search, serve)", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		outDir:  filepath.Join(".bench_build", "perfbench-out"),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	out, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
		rss, err := peakRSSMB()
		if err != nil {
			fatalf("%v", err)
		}
		out.metrics["runtime.peak_rss_mb"] = rss
		// What one ref is on this host, to read the end-to-end costs
		// back in milliseconds.
		host := newHostRef()
		for range 64 {
			host.sample()
		}
		out.metrics["host.ref_ms"] = host.ms()
		if err := out.spans.dump(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))); err != nil {
			fatalf("writing spans: %v", err)
		}
	}
	digestPath := filepath.Join(cfg.outDir, fmt.Sprintf("digest-%s-seed%d-%s.txt", *name, *seed, mode))
	if err := os.WriteFile(digestPath, []byte(out.digest+"\n"), 0o644); err != nil {
		fatalf("writing digest: %v", err)
	}
	fmt.Printf("perfbench: %s seed=%d %s answer digest %s\n", *name, *seed, mode, out.digest)

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: answer check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
