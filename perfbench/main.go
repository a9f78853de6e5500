// Command perfbench is spanjoin's benchmark: one seeded command that
// builds its inputs from internal/workload, runs one of three workloads
// against the public API, checks every output against a reference path,
// and prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads and metrics.
//
//	go run . --workload extract --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with spans around every call into a layer, times the
// layers' public functions directly, and prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Units of every metric the benchmark prints.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"op_ms_p50":    "ms",
	"op_ms_p90":    "ms",
	"ops_per_s":    "1/s",
	"cold_ms_p50":  "ms",
	"ok_ratio":     "ratio",
	"heap_live_mb": "MB",
}

var perLayerUnits = map[string]string{
	"rgx.compile_us":                   "us",
	"enum.plan_build_ms":               "ms",
	"enum.table_bytes":                 "bytes",
	"vsa.states":                       "count",
	"vsa.join_ms":                      "ms",
	"enum.graph_build_ns_per_byte":     "ns/byte",
	"enum.next_ns_per_tuple":           "ns/tuple",
	"ranked.build_ns_per_doc":          "ns/doc",
	"ranked.descent_us":                "us",
	"ranked.sample_us":                 "us",
	"prefilter.skip_ratio":             "ratio",
	"prefilter.scan_ns_per_byte":       "ns/byte",
	"prefilter.index_us":               "us",
	"core.eq_doc_ms":                   "ms",
	"corpus.delivery_ratio":            "ratio",
	"corpus.allocs_per_tuple":          "allocs",
	"corpus.count_vs_drain":            "ratio",
	"corpus.cache_hit_ratio":           "ratio",
	"resilience.admission_wait_ms_p90": "ms",
	"resilience.rejected_ratio":        "ratio",
	"wal.add_us_p50":                   "us",
	"wal.bytes_per_user_byte":          "ratio",
	"server.overhead_ms_p50":           "ms",
	"server.bytes_per_row":             "bytes",
	"obs.trace_overhead":               "ratio",
	"go.alloc_mb_per_op":               "MB",
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every input size; the self-test runs at a tiny
	// one.
	scale float64
	// dir holds the run's durable data and written spans.
	dir string
	// skew is added to one expected answer; the self-test uses it to show
	// that a wrong expectation is reported as failures.
	skew int
}

// sized scales an input count, never below lo.
func (c config) sized(n, lo int) int {
	m := int(float64(n) * c.scale)
	if m < lo {
		return lo
	}
	return m
}

// report is one run's outcome.
type report struct {
	checks
	metrics map[string]float64
	info    map[string]any
	// refBytes is the heap the benchmark's own reference answers hold,
	// left out of heap_live_mb.
	refBytes uint64
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, info: map[string]any{}}
}

var workloads = map[string]func(config) (*report, error){
	"extract": runExtract,
	"rank":    runRank,
	"serve":   runServe,
}

func main() {
	cfg := config{scale: 1, dir: filepath.Join(".bench_build", "perfbench")}
	flag.StringVar(&cfg.workload, "workload", "", "extract, rank or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload extract|rank|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", rep.first)
	}
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	out, err := json.Marshal(result(cfg, rep))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
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

// result selects the metrics of the run's mode: end to end untraced,
// per layer traced.
func result(cfg config, rep *report) resultLine {
	units := endToEndUnits
	if cfg.trace {
		units = perLayerUnits
	}
	line := resultLine{
		Correct:   rep.mismatched == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for name, unit := range units {
		line.Metrics[name] = metricValue{Value: rep.metrics[name], Unit: unit}
	}
	return line
}

// environment records what a result depends on besides the code.
func environment(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// closer is a system under test that set-up built.
type closer interface{ close() }

// setupReps is how many times a run builds its system: setup_s is their
// median, and the last one built is measured.
const setupReps = 5

// timedSetups builds the system setupReps times, closing all but the
// last, and records setup_s.
func timedSetups[S closer](rep *report, build func() (S, error)) (S, error) {
	var sys S
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			sys.close()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	rep.metrics["setup_s"] = median(times)
	rep.info["setup_s_all"] = times
	return sys, nil
}

// memory records the live heap after a forced collection, with the
// system still reachable, and the allocation rate of the measured phase.
func memory(rep *report, before runtime.MemStats, ops int, live ...any) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.metrics["go.alloc_mb_per_op"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e6, float64(ops))
	rep.metrics["heap_live_mb"] = float64(liveHeap()-rep.refBytes) / 1e6
	rep.info["reference_mb"] = float64(rep.refBytes) / 1e6
	runtime.KeepAlive(live)
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// reference builds the expected answers and records the heap they hold.
func reference(rep *report, build func(*report) error) error {
	before := liveHeap()
	if err := build(rep); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if after := liveHeap(); after > before {
		rep.refBytes = after - before
	}
	return nil
}

// summarize records the warm-operation latencies: end-to-end quantiles
// and a per-kind breakdown for the record. ops_per_s counts every
// operation completed in the measured phase.
func summarize(rep *report, done int, elapsed time.Duration, warm, first, cold *latencies, kinds map[string]*latencies) {
	rep.metrics["ops_per_s"] = float64(done) / elapsed.Seconds()
	rep.metrics["op_ms_p50"] = warm.p(0.5)
	rep.metrics["op_ms_p90"] = warm.p(0.9)
	rep.metrics["cold_ms_p50"] = cold.p(0.5)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	breakdown := map[string]any{}
	for _, k := range names {
		l := kinds[k]
		breakdown[k] = map[string]any{"n": l.n(), "p50_ms": l.p(0.5), "p90_ms": l.p(0.9)}
	}
	rep.info["ops"] = breakdown
	rep.info["samples"] = map[string]int{"warm": warm.n(), "cold": cold.n()}
	rep.info["first_ms_p50"] = first.p(0.5)
}

// finish records the outcome of every check the run made.
func (rep *report) finish() *report {
	failed := ratio(float64(rep.failed), float64(rep.attempted))
	rep.metrics["ok_ratio"] = 1 - failed
	rep.info["failed_ratio"] = failed
	return rep
}
