// Command e2ebench is the repository's end-to-end benchmark: SQL text in,
// rows out, on four named workloads, with every answer checked against
// the Volcano interpreter. See README.md in this directory.
//
//	bash e2ebench/run.sh --workload classic_warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The command exits 1 when any answer is wrong, and 2 on bad arguments.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	swole "github.com/reprolab/swole"
)

// workload is one named input set and how to drive it.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"classic_warm", "plan-cached replays of the paper's four classic shapes and an OR disjunction on 4M rows, 1M groups: the hand-specialized executor paths and the radix path", runClassicWarm},
	{"tpch_sql", "TPC-H Q1, Q3, Q12, Q14 and Q19 as SQL at SF 0.2, plan-cached: the generic Select executor and expression evaluation, which the classic shapes bypass", runTPCHSQL},
	{"adhoc", "a never-seen statement on every request (4M rows, 64K groups): SQL compile, synthesis, stats sampling, prepare and the 256-entry plan-cache flush", runAdhoc},
	{"serve_ingest", "open loop of HTTP reads plus 10% CSV appends against the server: admission, JSON, ingestion, the append path and plan eviction", runServeIngest},
}

// sizes fixes every dataset and rate of the four workloads.
type sizes struct {
	classic, adhoc, serve swole.MicroConfig
	tpchSF                float64
	serveRate             float64        // open-loop requests per second
	ingestRows            int            // rows per POST /ingest batch
	ingestEvery           int            // one request in ingestEvery is an ingest
	setupReps             map[string]int // set-ups per run, by workload; setup_s is their median
	warmReps              int            // untimed warm-up runs of each fixed statement
}

func fullSizes() sizes {
	return sizes{
		classic:     swole.MicroConfig{Rows: 4_000_000, DimRows: 1_000, GroupKeys: 1_000_000},
		adhoc:       swole.MicroConfig{Rows: 4_000_000, DimRows: 1_000, GroupKeys: 65_536},
		serve:       swole.MicroConfig{Rows: 1_000_000, DimRows: 1_000, GroupKeys: 1_000},
		tpchSF:      0.2,
		serveRate:   25,
		ingestRows:  1_000,
		ingestEvery: 10,
		// More set-ups where a set-up is cheap and its time noisy; three
		// where it takes seconds.
		setupReps: map[string]int{"classic_warm": 5, "tpch_sql": 3, "adhoc": 5, "serve_ingest": 9},
		warmReps:  2,
	}
}

// tinySizes is the self-test scale: every code path, in well under a
// second per workload.
func tinySizes() sizes {
	s := fullSizes()
	s.classic = swole.MicroConfig{Rows: 20_000, DimRows: 100, GroupKeys: 5_000}
	s.adhoc = swole.MicroConfig{Rows: 20_000, DimRows: 100, GroupKeys: 1_000}
	s.serve = swole.MicroConfig{Rows: 20_000, DimRows: 100, GroupKeys: 100}
	s.tpchSF = 0.002
	s.serveRate = 200
	s.ingestRows = 50
	return s
}

// goodputLimit is serve_ingest's read latency limit: goodput_qps counts
// the reads per second that finish inside it, timed from when each read
// was due. At the committed rate the read p99 sits near half of it.
const goodputLimit = 75 * time.Millisecond

// env is what a workload run gets from the command line.
type env struct {
	seed    uint64
	rng     *rand.Rand
	window  time.Duration // the timed measurement window
	sz      sizes
	workers int
	tr      *tracer // nil in untraced runs
	log     io.Writer

	// peakFloor is the peak RSS of the set-up, taken before the oracle's
	// interpreter runs; see outsidePeak.
	peakFloor float64

	// planEachRead makes a traced read time DB.Plan on its statement
	// before running it (adhoc, where every statement is new).
	planEachRead bool
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	wrong             []string // oracle mismatches; any makes the run incorrect

	e2e    map[string]float64 // BENCHMARK.json end-to-end metrics, by name
	extra  []metric           // workload-specific end-to-end figures
	layers map[string]float64 // per-layer metrics; absent ones print as 0
	notes  []string           // per-layer facts that are not numbers
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records an oracle mismatch: a wrong answer is a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s"},
	{name: "reads_per_s", unit: "1/s"},
	{name: "read_p50_ms", unit: "ms"},
	{name: "read_p90_ms", unit: "ms"},
	{name: "query_geomean_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order. A layer a workload does not exercise reports 0.
var layerMetrics = func() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{name: n, unit: unit})
		}
	}
	for _, s := range classicNames {
		add("ms", "core.classic."+s+"_ms")
	}
	add("ms", "core.partition_ms")
	add("count", "ht.grows", "exec.fresh_allocs")
	add("count", vecNames...)
	for _, q := range tpchNames {
		add("ms", "core.tpch."+q+"_ms")
	}
	for _, q := range tpchKernelNames {
		add("ratio", "core.tpch."+q+"_over_kernel")
	}
	add("ms", "sql.compile_ms", "plan.first_run_overhead_ms")
	add("ratio", "stats.cached_frac", "plancache.hit_frac")
	add("count", "plancache.entries", "plancache.flushes")
	add("MB", "plancache.heap_mb_per_entry", "plancache.rss_before_flush_mb", "plancache.rss_after_flush_mb")
	add("1/s", "ingest.parse_rows_per_s")
	add("ms", "append.ms")
	add("count", "append.rows_rejected")
	add("ms", "serve.wait_ms", "serve.exec_ms", "serve.overhead_ms")
	add("count", "serve.rejected", "volcano.fallbacks", "gc.cycles")
	add("ms", "gc.pause_ms", "load.late_p99_ms")
	add("ratio", "trace.overhead_frac")
	add("count", "trace.spans")
	return out
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: classic_warm, tpch_sql, adhoc or serve_ingest")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	tiny := fs.Bool("tiny", false, "self-test scale: tiny datasets")
	spans := fs.String("spans", ".bench_build/e2ebench/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{
		seed:    *seed,
		rng:     rand.New(rand.NewSource(int64(*seed))),
		window:  time.Duration(*seconds * float64(time.Second)),
		sz:      fullSizes(),
		workers: runtime.NumCPU(),
		log:     stdout,
	}
	if *tiny {
		e.sz = tinySizes()
	}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	printHeader(stdout, w, e)

	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	out.layers["trace.spans"] = float64(e.tr.count())
	// After the workload has read its peak RSS: the probe's buffers must
	// not count in it. A host figure, not the program's, so not a metric.
	fmt.Fprintf(stdout, "# host memory copy rate after the run: %.2f GB/s\n", copyGBs())
	if e.tr != nil {
		e.tr.summarize(stdout)
		file := fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)
		if path, err := e.tr.write(*spans, file); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "# spans written to %s\n", path)
		}
	}
	res := report(stdout, out, *traceFlag == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, m := range out.wrong {
			fmt.Fprintf(stderr, "e2ebench: wrong answer: %s\n", m)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// result is the final JSON line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit and builds the JSON
// result: end-to-end metrics untraced, per-layer metrics traced.
func report(w io.Writer, o *outcome, traced bool) result {
	res := result{
		Correct:   len(o.wrong) == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricResult{},
	}
	frac := float64(o.failed) / float64(res.Attempted)
	fmt.Fprintf(w, "# end-to-end (attempted %d, failed %d)\n", o.attempted, o.failed)
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", m.name, o.e2e[m.name], m.unit)
		if !traced {
			res.Metrics[m.name] = metricResult{Value: o.e2e[m.name], Unit: m.unit}
		}
	}
	for _, m := range append(o.extra, metric{name: "failed_frac", unit: "ratio", value: frac}) {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if traced {
		fmt.Fprintln(w, "# per-layer")
		for _, m := range layerMetrics {
			v := o.layers[m.name]
			fmt.Fprintf(w, "%-34s %14.4f %s\n", m.name, v, m.unit)
			res.Metrics[m.name] = metricResult{Value: v, Unit: m.unit}
		}
		for _, n := range o.notes {
			fmt.Fprintf(w, "# %s\n", n)
		}
	}
	return res
}

// printHeader prints the host block and the run's fixed parameters.
func printHeader(w io.Writer, wl *workload, e *env) {
	fmt.Fprintf(w, "# host: cores=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "# workload=%s seed=%d window=%s engine_workers=%d traced=%t\n",
		wl.name, e.seed, e.window, e.workers, e.tr != nil)
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	sz := e.sz
	mc := func(c swole.MicroConfig) string {
		return fmt.Sprintf("micro{rows=%d dim=%d groups=%d}", c.Rows, c.DimRows, c.GroupKeys)
	}
	switch wl.name {
	case "classic_warm":
		fmt.Fprintf(w, "# dataset: %s\n", mc(sz.classic))
	case "tpch_sql":
		fmt.Fprintf(w, "# dataset: tpch{sf=%g}; %d parameter draws of each query\n", sz.tpchSF, tpchDraws)
	case "adhoc":
		fmt.Fprintf(w, "# dataset: %s\n", mc(sz.adhoc))
	case "serve_ingest":
		fmt.Fprintf(w, "# dataset: %s; open loop %g req/s over 2 connections, 1 in %d an ingest of %d rows; read latency limit %s\n",
			mc(sz.serve), sz.serveRate, sz.ingestEvery, sz.ingestRows, goodputLimit)
	}
	fmt.Fprintf(w, "# set-up runs %d times per run and is reported only as setup_s (median); "+
		"each fixed statement runs once for the oracle and %d more times as warm-up, none of them timed\n",
		sz.setupReps[wl.name], sz.warmReps)
}

// cpuModel reads the CPU model name, "" where /proc/cpuinfo is absent.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// setupRepeated builds the workload's state sizes.setupReps times and
// keeps the last build; the median build time is the run's setup_s, and
// every build time is printed. Each discarded build is released and its
// memory returned before the next starts, so every build starts from the
// same heap. build gets its "setup" span and request id, for the spans of
// the calls it makes.
func setupRepeated[T any](e *env, workload string, build func(parent, req int64) (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < max(1, e.sz.setupReps[workload]); i++ {
		if i > 0 {
			release(last)
			var zero T
			last = zero
			debug.FreeOSMemory()
		}
		var err error
		req := e.tr.request()
		id := e.tr.begin("setup", 0, req)
		start := time.Now()
		last, err = build(id, req)
		times = append(times, time.Since(start).Seconds())
		e.tr.end(id)
		if err != nil {
			return last, 0, err
		}
	}
	fmt.Fprintf(e.log, "# set-up times (s):")
	for _, t := range times {
		fmt.Fprintf(e.log, " %.4f", t)
	}
	fmt.Fprintln(e.log)
	return last, medianFloat(times), nil
}

// outsidePeak runs check, an oracle step before the window, and keeps its
// memory out of peak_rss_mb: the peak so far is set aside as the set-up's,
// and the kernel's count restarts once check is done. The interpreter's
// transient tables (a million groups on classic_warm) are then not charged
// to the engine under test.
func (e *env) outsidePeak(check func() error) error {
	floor := procStatusMB("VmHWM")
	err := check()
	e.peakFloor = max(e.peakFloor, floor)
	if !resetPeakRSS() {
		fmt.Fprintln(e.log, "# warning: the peak RSS could not be reset; peak_rss_mb includes the oracle")
	}
	return err
}

// peakRSS is peak_rss_mb: the larger of the set-up's peak and the peak
// since the oracle, in MiB.
func (e *env) peakRSS() float64 {
	return max(e.peakFloor, procStatusMB("VmHWM"))
}

var bg = context.Background()
