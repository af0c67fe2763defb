package main

import (
	"fmt"
	"runtime/debug"
	"time"

	swole "github.com/reprolab/swole"
)

// adhoc: every request is a statement the engine has never seen, drawn
// from templates over the classic shapes plus one multi-aggregate shape
// that only the generic executor runs. Each request pays SQL compile,
// synthesis, statistics sampling, the cost model and prepare, and the
// stream outgrows the plan cache, so a run passes its flush.

// planCacheBound is the plan cache's documented size: DB clears the whole
// cache when a new plan would exceed it.
const planCacheBound = 256

// adhocPrefill statements of the stream run, untimed, before the window.
// The cache then starts the window part full, so every window passes its
// flush and peak_rss_mb sees a full cache whatever the run's throughput.
const adhocPrefill = 100

var adhocTemplates = []struct {
	name string
	sql  string // two literals, lo < hi
}{
	{"scalar", "select sum(r_a * r_b) from r where r_x < %[2]d and r_b > %[1]d"},
	{"groupagg", "select r_c, sum(r_a) from r where r_x >= %d and r_x < %d group by r_c"},
	{"semijoin", "select sum(r_a) from r, s where r_fk = s_pk and s_x < %[2]d and r_x < %[1]d"},
	{"groupjoin", "select r_fk, sum(r_a) from r, s where r_fk = s_pk and s_x >= %d and s_x < %d group by r_fk"},
	{"multiagg", "select sum(r_a), count(*), max(r_b) from r where r_x < %[2]d and r_b > %[1]d"},
}

// adhocStream hands out statements never handed out before, cycling
// through the templates in seeded order with seeded literals.
type adhocStream struct {
	seen map[string]bool
	next func() *stmt
	all  []*stmt
}

func newAdhocStream(e *env) *adhocStream {
	a := &adhocStream{seen: map[string]bool{}}
	var order []int
	a.next = func() *stmt {
		if len(order) == 0 {
			order = e.rng.Perm(len(adhocTemplates))
		}
		t := adhocTemplates[order[0]]
		order = order[1:]
		for {
			lo := e.rng.Intn(50)
			q := fmt.Sprintf(t.sql, lo, lo+1+e.rng.Intn(50))
			if !a.seen[q] {
				a.seen[q] = true
				s := &stmt{name: t.name, sql: q}
				a.all = append(a.all, s)
				return s
			}
		}
	}
	return a
}

// adhocWatch follows the plan cache during a traced run: the heap and
// RSS with the cache full, and again right after it is flushed.
type adhocWatch struct {
	e             *env
	db            *swole.DB
	baseHeap      float64
	prev, flushes int
	beforeHeap    float64
	beforeEntries int
	rssBefore     float64
	rssAfter      float64
	measured      bool
}

func (a *adhocWatch) observe() {
	var n int
	a.e.tr.timed("DB.PlanCacheLen", 0, a.e.tr.request(), func() { n = a.db.PlanCacheLen() })
	switch {
	case n < a.prev:
		a.flushes++
		if !a.measured && a.beforeEntries > 0 {
			debug.FreeOSMemory()
			a.rssAfter = procStatusMB("VmRSS")
			a.measured = true
		}
	case n >= planCacheBound && !a.measured:
		a.beforeHeap = heapMB()
		a.beforeEntries = n
		a.rssBefore = procStatusMB("VmRSS")
	}
	a.prev = n
}

func runAdhoc(e *env) (*outcome, error) {
	o := newOutcome()
	db, setupS, err := e.loadMicro("adhoc", e.sz.adhoc)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var baseHeap float64
	if e.tr != nil {
		baseHeap = heapMB()
	}
	stream := newAdhocStream(e)
	for i := 0; i < adhocPrefill; i++ {
		s := stream.next()
		if _, _, err := db.QueryContext(bg, s.sql); err != nil {
			return nil, fmt.Errorf("%s: %w", s.sql, err)
		}
	}
	stream.all = stream.all[:0]
	next := stream.next
	var watch *adhocWatch
	if e.tr != nil {
		e.planEachRead = true
		watch = &adhocWatch{e: e, db: db, baseHeap: baseHeap}
		next = func() *stmt {
			watch.observe()
			return stream.next()
		}
	}
	w := e.closedLoop(db, next, o)

	perTemplate := map[string][]time.Duration{}
	for _, s := range stream.all {
		perTemplate[s.name] = append(perTemplate[s.name], s.lat...)
	}
	var lats [][]time.Duration
	for _, t := range adhocTemplates {
		lats = append(lats, perTemplate[t.name])
	}
	e.fill(w, o, setupS, lats)
	for i, t := range adhocTemplates {
		fmt.Fprintf(e.log, "# template %s: %d reads, median %.2f ms\n", t.name, len(lats[i]), ms(median(lats[i])))
	}

	// The oracle, outside the timed window: one seeded answered statement
	// per template against the interpreter.
	for _, t := range adhocTemplates {
		var ran []*stmt
		for _, s := range stream.all {
			if s.name == t.name && s.ran {
				ran = append(ran, s)
			}
		}
		if len(ran) == 0 {
			continue
		}
		s := ran[e.rng.Intn(len(ran))]
		var want [][]int64
		var err error
		e.tr.timed("DB.Query", 0, e.tr.request(), func() { want, err = interpreterAnswer(db, s.sql) })
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.sql, err)
		}
		if fingerprint(want) != s.got {
			o.fail("%s: answer differs from the interpreter's", s.sql)
		}
	}
	if e.tr != nil {
		e.adhocLayers(db, stream, watch, o)
	}
	return o, nil
}

// adhocLayers sets the per-layer metrics of a traced adhoc run: compile
// time over the traced half, the plan cache's memory per entry, and the
// first-run overhead of one fresh statement per template, each re-run
// warm outside the window.
func (e *env) adhocLayers(db *swole.DB, stream *adhocStream, watch *adhocWatch, o *outcome) {
	var compile []float64
	for _, s := range stream.all {
		if s.compile > 0 {
			compile = append(compile, ms(s.compile))
		}
	}
	o.layers["sql.compile_ms"] = medianFloat(compile)
	o.layers["plancache.flushes"] = float64(watch.flushes)
	if watch.beforeEntries > 0 {
		o.layers["plancache.heap_mb_per_entry"] = (watch.beforeHeap - watch.baseHeap) / float64(watch.beforeEntries)
		o.layers["plancache.rss_before_flush_mb"] = watch.rssBefore
		o.layers["plancache.rss_after_flush_mb"] = watch.rssAfter
	}

	const warm = 3
	var overhead []float64
	var v swole.KernelVariants
	for range adhocTemplates {
		s := stream.next()
		req := e.tr.request()
		var err error
		s.compile = e.tr.timed("DB.Plan", 0, req, func() { _, err = db.Plan(s.sql) })
		if err != nil {
			o.fail("%s: DB.Plan: %v", s.sql, err)
			continue
		}
		var lat []time.Duration
		var ex swole.Explain
		for i := 0; i <= warm; i++ {
			d := e.tr.timed("DB.QueryContext", 0, req, func() { _, ex, err = db.QueryContext(bg, s.sql) })
			o.attempted++
			if err != nil {
				o.fail("%s: %v", s.sql, err)
				break
			}
			if i == 0 {
				s.cold = d
			} else {
				lat = append(lat, d)
			}
		}
		if len(lat) == warm {
			overhead = append(overhead, ms(s.cold-median(lat)-s.compile))
			v.Add(&ex.Variants)
		}
	}
	o.layers["plan.first_run_overhead_ms"] = medianFloat(overhead)
	setVariants(o, v)
	var entries int
	e.tr.timed("DB.PlanCacheLen", 0, e.tr.request(), func() { entries = db.PlanCacheLen() })
	o.layers["plancache.entries"] = float64(entries)
}
