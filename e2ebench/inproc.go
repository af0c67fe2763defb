package main

import (
	"fmt"
	"math"
	"time"

	swole "github.com/reprolab/swole"
)

// The three in-process workloads: one closed-loop client calling
// DB.QueryContext on an engine running SetWorkers(nproc).

// stmt is one statement of a workload and what the benchmark learned
// about it.
type stmt struct {
	name     string // statement (or, in adhoc, template) name
	sql      string
	want     uint64        // fingerprint of the interpreter's answer, once known
	wantRows int           // and its row count
	checked  bool          // want is set
	got      uint64        // fingerprint of the last timed answer of an unchecked statement
	ran      bool          // got is set
	lastRes  *swole.Result // last timed answer of a checked statement

	compile time.Duration   // DB.Plan
	cold    time.Duration   // first DB.QueryContext
	lat     []time.Duration // timed reads
	last    swole.Explain   // Explain of the last timed read
}

// failedLatency stands for a read that failed: it misses every latency
// limit and sorts above every measured latency.
const failedLatency = time.Duration(math.MaxInt64)

// window is what one timed window measured.
type window struct {
	reads, ok int
	lat       []time.Duration               // every read, failed ones as failedLatency
	busy      time.Duration                 // summed latency of the successful reads
	half      [2]map[string][]time.Duration // traced run: untraced and traced half, by statement
	explains  []swole.Explain               // of the successful reads
	gc        gcSnap                        // collections and pause during the window
}

// prepare runs the oracle on fixed statements before timing starts: each
// statement's interpreter answer, its DB.Plan compile time and its first
// (cold) SWOLE run, which must match; then warm-up runs, untimed.
func (e *env) prepare(db *swole.DB, stmts []*stmt, o *outcome) error {
	err := e.outsidePeak(func() error { return e.oracle(db, stmts, o) })
	if err != nil {
		return err
	}
	for i := 0; i < e.sz.warmReps; i++ {
		for _, s := range stmts {
			if _, _, err := db.QueryContext(bg, s.sql); err != nil {
				return fmt.Errorf("%s warm-up: %w", s.name, err)
			}
		}
	}
	return nil
}

// oracle checks each statement's first SWOLE answer against the
// interpreter's, and keeps the interpreter's fingerprint for verifyLast.
func (e *env) oracle(db *swole.DB, stmts []*stmt, o *outcome) error {
	for _, s := range stmts {
		req := e.tr.request()
		var err error
		s.compile = e.tr.timed("DB.Plan", 0, req, func() { _, err = db.Plan(s.sql) })
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		var want [][]int64
		e.tr.timed("DB.Query", 0, req, func() { want, err = interpreterAnswer(db, s.sql) })
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		var res *swole.Result
		s.cold = e.tr.timed("DB.QueryContext", 0, req, func() { res, _, err = db.QueryContext(bg, s.sql) })
		o.attempted++
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if d := diffAnswers(res.Rows(), want); d != nil {
			o.fail("%s: %v", s.name, d)
		}
		s.want, s.wantRows, s.checked = fingerprint(want), len(want), true
	}
	return nil
}

// read runs one timed statement and checks its answer outside the timed
// call: the row count of a statement the oracle already checked (its last
// answer is fingerprinted after the window, by verifyLast), or the
// fingerprint of one it did not, for a later check.
func (e *env) read(db *swole.DB, s *stmt, w *window, o *outcome, half int) {
	req := e.tr.request()
	root := e.tr.begin("read", 0, req)
	defer e.tr.end(root)
	var res *swole.Result
	var ex swole.Explain
	var err error
	if e.planEachRead && e.tr.enabled() {
		s.compile = e.tr.timed("DB.Plan", root, req, func() { _, err = db.Plan(s.sql) })
		if err != nil {
			o.fail("%s: DB.Plan: %v", s.sql, err)
		}
	}
	d := e.tr.timed("DB.QueryContext", root, req, func() { res, ex, err = db.QueryContext(bg, s.sql) })
	o.attempted++
	w.reads++
	if err != nil {
		o.fail("%s: %v", s.name, err)
		w.lat = append(w.lat, failedLatency)
		s.lat = append(s.lat, failedLatency)
		return
	}
	if s.checked {
		s.lastRes = res
	} else {
		e.tr.timed("oracle.fingerprint", root, req, func() { s.got = fingerprint(res.Rows()) })
		s.ran = true
	}
	if s.checked && res.NumRows() != s.wantRows {
		o.fail("%s: timed answer has %d rows, want %d", s.name, res.NumRows(), s.wantRows)
		d = failedLatency
	} else {
		w.ok++
		w.busy += d
	}
	w.lat = append(w.lat, d)
	s.lat = append(s.lat, d)
	if w.half[half] == nil {
		w.half[half] = map[string][]time.Duration{}
	}
	w.half[half][s.name] = append(w.half[half][s.name], d)
	s.last = ex
	w.explains = append(w.explains, ex)
}

// closedLoop times reads from one client for the env's window, taking
// the next statement from next. A traced run leaves tracing off for the
// first half of the window, so the two halves give the tracing overhead.
func (e *env) closedLoop(db *swole.DB, next func() *stmt, o *outcome) *window {
	w := &window{}
	gc0 := readGC()
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= e.window {
			break
		}
		half := 0
		if e.tr != nil {
			if el >= e.window/2 {
				half = 1
			}
			e.tr.on.Store(half == 1)
		}
		e.read(db, next(), w, o, half)
	}
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	gc1 := readGC()
	w.gc = gcSnap{cycles: gc1.cycles - gc0.cycles, pause: gc1.pause - gc0.pause}
	if w.reads < 100 {
		fmt.Fprintf(e.log, "# warning: only %d reads in the window; read_p90_ms needs at least 100\n", w.reads)
	}
	return w
}

// verifyLast checks the last timed answer of each statement against the
// interpreter's, after the window.
func (e *env) verifyLast(stmts []*stmt, o *outcome) {
	for _, s := range stmts {
		if s.lastRes == nil {
			continue
		}
		var fp uint64
		e.tr.timed("oracle.fingerprint", 0, e.tr.request(), func() { fp = fingerprint(s.lastRes.Rows()) })
		o.attempted++
		if fp != s.want {
			o.fail("%s: timed answer differs from the interpreter's", s.name)
		}
		s.lastRes = nil
	}
}

// fill sets the end-to-end metrics and the window's per-layer counters.
func (e *env) fill(w *window, o *outcome, setupS float64, perStmt [][]time.Duration) {
	o.e2e["setup_s"] = setupS
	if w.busy > 0 {
		o.e2e["reads_per_s"] = float64(w.ok) / w.busy.Seconds()
	}
	o.e2e["read_p50_ms"] = ms(quantile(w.lat, 0.50))
	o.e2e["read_p90_ms"] = ms(quantile(w.lat, 0.90))
	o.e2e["query_geomean_ms"] = geomeanMS(perStmt)
	o.e2e["peak_rss_mb"] = e.peakRSS()

	explainLayers(o, w.explains)
	o.layers["gc.cycles"] = float64(w.gc.cycles)
	o.layers["gc.pause_ms"] = ms(w.gc.pause)
	o.layers["trace.overhead_frac"] = w.traceOverhead()
}

// traceOverhead compares the traced half of the window with the untraced
// half: the geometric mean over statements of the ratio of their median
// latencies, minus one.
func (w *window) traceOverhead() float64 {
	sum, n := 0.0, 0
	for name, off := range w.half[0] {
		on := w.half[1][name]
		if len(on) == 0 {
			continue
		}
		sum += math.Log(float64(median(on)) / float64(median(off)))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum/float64(n)) - 1
}

// fixedLayers sets the per-layer metrics of a fixed statement set: the
// compile time, the kernel-variant counters of each statement's last
// timed run, and the plan cache's size.
func (e *env) fixedLayers(db *swole.DB, stmts []*stmt, o *outcome) {
	var compile []float64
	var v swole.KernelVariants
	for _, s := range stmts {
		compile = append(compile, ms(s.compile))
		v.Add(&s.last.Variants)
	}
	o.layers["sql.compile_ms"] = medianFloat(compile)
	setVariants(o, v)
	var entries int
	e.tr.timed("DB.PlanCacheLen", 0, e.tr.request(), func() { entries = db.PlanCacheLen() })
	o.layers["plancache.entries"] = float64(entries)
}

// firstRunOverhead is the median over statements of the first run's
// time beyond a warm run and the compile: synthesis, statistics, the cost
// model and prepare.
func firstRunOverhead(stmts []*stmt, o *outcome) {
	var overhead []float64
	for _, s := range stmts {
		overhead = append(overhead, ms(s.cold-median(s.lat)-s.compile))
	}
	o.layers["plan.first_run_overhead_ms"] = medianFloat(overhead)
}

// vecNames are the kernel-variant counters, from Explain.Variants.
var vecNames = []string{
	"vec.sel_sparse", "vec.sel_mid", "vec.sel_dense", "vec.cmp_tiles", "vec.widen_tiles",
	"vec.dict_keys", "vec.masked_agg", "vec.key_mask", "vec.prefetch_scatter", "vec.prefetch_probe",
}

func setVariants(o *outcome, v swole.KernelVariants) {
	var cmp, widen uint64
	for i := range v.Cmp {
		cmp += v.Cmp[i]
		widen += v.Widen[i]
	}
	for i, x := range []uint64{v.SelSparse, v.SelMid, v.SelDense, cmp, widen,
		v.DictKeys, v.MaskedAgg, v.KeyMask, v.PrefetchScatter, v.PrefetchProbe} {
		o.layers[vecNames[i]] = float64(x)
	}
}

// cycle returns a next function that replays stmts in a fresh seeded
// order each round.
func (e *env) cycle(stmts []*stmt) func() *stmt {
	var order []int
	return func() *stmt {
		if len(order) == 0 {
			order = e.rng.Perm(len(stmts))
		}
		s := stmts[order[0]]
		order = order[1:]
		return s
	}
}

func latencies(stmts []*stmt) [][]time.Duration {
	out := make([][]time.Duration, len(stmts))
	for i, s := range stmts {
		out[i] = s.lat
	}
	return out
}

// loadMicro builds a microbenchmark database with the run's seed and the
// engine at nproc workers.
func (e *env) loadMicro(workload string, cfg swole.MicroConfig) (*swole.DB, float64, error) {
	cfg.Seed = e.seed
	return setupRepeated(e, workload, func(parent, req int64) (*swole.DB, error) {
		var db *swole.DB
		var err error
		e.tr.timed("swole.LoadMicro", parent, req, func() { db, err = swole.LoadMicro(cfg) })
		if err != nil {
			return nil, err
		}
		db.SetWorkers(e.workers)
		return db, nil
	}, (*swole.DB).Close)
}

// classicNames name the classic_warm statements, in classicSQL order.
var classicNames = []string{"scalar", "groupagg", "semijoin", "groupjoin", "or"}

// classicSQL are the paper's four classic shapes (scalar, group-by,
// semijoin and groupjoin aggregation) plus an OR disjunction.
var classicSQL = []string{
	"select sum(r_a * r_b) from r where r_x < 50",
	"select r_c, sum(r_a) from r where r_x < 50 group by r_c",
	"select sum(r_a) from r, s where r_fk = s_pk and s_x < 50 and r_x < 50",
	"select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x < 50 group by r_fk",
	"select sum(r_a) from r where r_x < 10 or r_y > 90",
}

func classicStatements() []*stmt {
	out := make([]*stmt, len(classicSQL))
	for i, q := range classicSQL {
		out[i] = &stmt{name: classicNames[i], sql: q}
	}
	return out
}

func runClassicWarm(e *env) (*outcome, error) {
	o := newOutcome()
	db, setupS, err := e.loadMicro("classic_warm", e.sz.classic)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	stmts := classicStatements()
	if err := e.prepare(db, stmts, o); err != nil {
		return nil, err
	}
	w := e.closedLoop(db, e.cycle(stmts), o)
	e.verifyLast(stmts, o)
	e.fill(w, o, setupS, latencies(stmts))
	for _, s := range stmts {
		o.layers["core.classic."+s.name+"_ms"] = ms(median(s.lat))
	}
	e.fixedLayers(db, stmts, o)
	firstRunOverhead(stmts, o)
	return o, nil
}
