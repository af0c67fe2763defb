package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	swole "github.com/reprolab/swole"
	"github.com/reprolab/swole/internal/ingest"
	"github.com/reprolab/swole/internal/serve"
)

// serve_ingest: the HTTP server in this process at its defaults, driven
// by an open loop over two connections. Requests are due at a fixed rate
// whatever the server does, and each is timed from when it was due, so a
// stall is charged to every request queued behind it. One request in
// ingestEvery appends a CSV batch to r, which evicts r's cached plans.

// servedDB is the set-up of serve_ingest: the database and its server.
type servedDB struct {
	db  *swole.DB
	srv *serve.Server
}

func (s servedDB) stop() {
	_ = s.srv.Shutdown(bg) // drains in-flight requests; nothing is in flight here
	s.db.Close()
}

// request is one scheduled open-loop request.
type request struct {
	stmt *stmt  // nil for an ingest
	body []byte // POST body: JSON query or CSV batch
}

// connStats is what one client connection measured.
type connStats struct {
	readLat, ingestLat []time.Duration // from when each request was due
	service            []time.Duration // reads, from when each was sent
	late               []time.Duration // send time minus due time
	okReads, okIngests int
	accepted, rejected int
	failed             int      // transport errors and refusals
	wrong              []string // implausible answers
	lastDone           time.Time
	explains           []swole.Explain
	byStmt             map[*stmt][]time.Duration // read latency from due, by statement
	lastEx             map[*stmt]swole.Explain   // Explain of each statement's last read
	half               [2][]time.Duration        // traced run: read latency in the untraced and traced half
}

// queryReply is the body of a POST /query answer.
type queryReply struct {
	Rows    [][]int64      `json:"rows"`
	Explain *swole.Explain `json:"explain"`
}

// ingestReply is the body of a POST /ingest answer.
type ingestReply struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

func runServeIngest(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := e.sz.serve
	cfg.Seed = e.seed
	st, setupS, err := setupRepeated(e, "serve_ingest", func(parent, req int64) (servedDB, error) {
		var db *swole.DB
		var err error
		e.tr.timed("swole.LoadMicro", parent, req, func() { db, err = swole.LoadMicro(cfg) })
		if err != nil {
			return servedDB{}, err
		}
		db.SetWorkers(e.workers)
		var srv *serve.Server
		e.tr.timed("serve.New", parent, req, func() {
			srv = serve.New(db, serve.Config{Addr: "127.0.0.1:0"})
			err = srv.Start()
		})
		if err != nil {
			db.Close()
			return servedDB{}, err
		}
		return servedDB{db, srv}, nil
	}, servedDB.stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	base := "http://" + st.srv.Addr()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	// The four classic statements, checked before the window and warmed.
	stmts := classicStatements()[:4]
	for _, s := range stmts {
		var err error
		s.compile = e.tr.timed("DB.Plan", 0, e.tr.request(), func() { _, err = st.db.Plan(s.sql) })
		if err != nil {
			return nil, err
		}
	}
	err = e.outsidePeak(func() error { return checkServed(e, st.db, client, base, stmts, o) })
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.sz.warmReps; i++ {
		for _, s := range stmts {
			var rep queryReply
			if err := post(client, base+"/query", "application/json", queryBody(s.sql), &rep); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", s.name, err)
			}
		}
	}

	sched := e.schedule(stmts, cfg)
	if e.tr != nil {
		if err := parseRate(e, sched, o); err != nil {
			return nil, err
		}
	}
	before, err := scrape(e, client, base)
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	conns, start := e.openLoop(client, base, sched, o)
	gc1 := readGC()
	o.e2e["peak_rss_mb"] = e.peakRSS()
	after, err := scrape(e, client, base)
	if err != nil {
		return nil, err
	}

	var all connStats
	for _, c := range conns {
		for s, lat := range c.byStmt {
			s.lat = append(s.lat, lat...)
		}
		for s, ex := range c.lastEx {
			s.last = ex
		}
		all.half[0] = append(all.half[0], c.half[0]...)
		all.half[1] = append(all.half[1], c.half[1]...)
		all.readLat = append(all.readLat, c.readLat...)
		all.ingestLat = append(all.ingestLat, c.ingestLat...)
		all.service = append(all.service, c.service...)
		all.late = append(all.late, c.late...)
		all.okReads += c.okReads
		all.okIngests += c.okIngests
		all.accepted += c.accepted
		all.rejected += c.rejected
		all.failed += c.failed
		all.explains = append(all.explains, c.explains...)
		if c.lastDone.After(all.lastDone) {
			all.lastDone = c.lastDone
		}
	}
	elapsed := all.lastDone.Sub(start).Seconds()
	var good int
	for _, d := range all.readLat {
		if d <= goodputLimit {
			good++
		}
	}
	o.e2e["setup_s"] = setupS
	// What the server sustained, not the schedule's rate: reads per second
	// of service time on each connection, as the closed-loop workloads'
	// reads per second of latency.
	if busy := sumDur(all.service); busy > 0 {
		o.e2e["reads_per_s"] = float64(all.okReads) / busy.Seconds() * float64(len(conns))
	}
	o.e2e["read_p50_ms"] = ms(quantile(all.readLat, 0.50))
	o.e2e["read_p90_ms"] = ms(quantile(all.readLat, 0.90))
	o.e2e["query_geomean_ms"] = geomeanMS(latencies(stmts))
	o.extra = []metric{
		{name: "read_p99_ms", unit: "ms", value: ms(quantile(all.readLat, 0.99))},
		{name: "goodput_qps", unit: "1/s", value: float64(good) / elapsed},
		{name: "ingest_p50_ms", unit: "ms", value: ms(quantile(all.ingestLat, 0.50))},
		{name: "ingest_p90_ms", unit: "ms", value: ms(quantile(all.ingestLat, 0.90))},
	}
	fmt.Fprintf(e.log, "# serve_ingest: %d reads and %d ingests in the window (read_p99_ms has %d reads beyond it)\n",
		len(all.readLat), len(all.ingestLat), len(all.readLat)/100)

	// Per-layer figures from the server's own metrics and the Explains.
	d := func(k string) float64 { return after[k] - before[k] }
	if n := d("swole_query_duration_seconds_count"); n > 0 {
		wait := d("swole_admission_wait_seconds_sum")
		o.layers["serve.wait_ms"] = 1e3 * wait / n
		o.layers["serve.exec_ms"] = 1e3 * (d("swole_query_duration_seconds_sum") - wait) / n
		o.layers["serve.overhead_ms"] = ms(mean(all.service)) - 1e3*d("swole_query_duration_seconds_sum")/n
	}
	o.layers["serve.rejected"] = d("rejected")
	o.layers["append.rows_rejected"] = float64(all.rejected)
	o.layers["load.late_p99_ms"] = ms(quantile(all.late, 0.99))
	o.layers["gc.cycles"] = float64(gc1.cycles - gc0.cycles)
	o.layers["gc.pause_ms"] = ms(gc1.pause - gc0.pause)
	if len(all.half[0]) > 0 && len(all.half[1]) > 0 {
		o.layers["trace.overhead_frac"] = float64(median(all.half[1]))/float64(median(all.half[0])) - 1
	}
	explainLayers(o, all.explains)
	e.fixedLayers(st.db, stmts, o)

	accepted := all.accepted
	if e.tr != nil {
		n, err := appendCost(e, st.db, o)
		if err != nil {
			return nil, err
		}
		accepted += n
	}
	// The oracle at the end: the row count of r, and the classic answers.
	if err := checkCount(e, st.db, client, base, cfg.Rows+accepted, o); err != nil {
		return nil, err
	}
	if err := checkServed(e, st.db, client, base, stmts, o); err != nil {
		return nil, err
	}
	return o, nil
}

// schedule lays out the window's requests: every ingestEvery-th request,
// from a seeded offset, appends its own seeded batch, and the others read
// the classic statements in seeded rounds. The fixed spacing means every
// run sees the same share of reads that re-plan after an eviction. A
// round reads the scalar statement twice: with the four statements
// weighted equally, half the reads would be the two fast statements and
// the read median would sit exactly on the gap between the fast and the
// slow half, jumping across it from run to run.
func (e *env) schedule(stmts []*stmt, cfg swole.MicroConfig) []request {
	n := int(e.sz.serveRate * e.window.Seconds())
	next := e.cycle(append([]*stmt{stmts[0]}, stmts...))
	bodies := map[*stmt][]byte{}
	for _, s := range stmts {
		bodies[s] = queryBody(s.sql)
	}
	offset := e.rng.Intn(e.sz.ingestEvery)
	out := make([]request, n)
	for i := range out {
		if i%e.sz.ingestEvery == offset {
			out[i] = request{body: csvBatch(e, cfg)}
			continue
		}
		s := next()
		out[i] = request{stmt: s, body: bodies[s]}
	}
	return out
}

// csvBatch is a batch of r rows in the generator's value domains:
// r_a, r_b in 1..100, r_x in 0..99, r_y = 1, and valid group and
// foreign keys.
func csvBatch(e *env, cfg swole.MicroConfig) []byte {
	var b bytes.Buffer
	for i := 0; i < e.sz.ingestRows; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,1,%d,%d\n", 1+e.rng.Intn(100), 1+e.rng.Intn(100), e.rng.Intn(100),
			e.rng.Intn(cfg.GroupKeys), e.rng.Intn(cfg.DimRows))
	}
	return b.Bytes()
}

// openLoop sends the schedule from two connections (one on a one-core
// host): request i is due at start + i/rate, and a connection that falls
// behind sends late rather than skipping.
func (e *env) openLoop(client *http.Client, base string, sched []request, o *outcome) ([]*connStats, time.Time) {
	connections := min(2, e.workers)
	interval := time.Duration(float64(time.Second) / e.sz.serveRate)
	conns := make([]*connStats, connections)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		cs := &connStats{byStmt: map[*stmt][]time.Duration{}, lastEx: map[*stmt]swole.Explain{}}
		conns[c] = cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				if e.tr != nil {
					e.tr.on.Store(i >= len(sched)/2)
				}
				e.send(client, base, sched[i], due, cs)
			}
		}()
	}
	wg.Wait()
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	tally(o, conns)
	return conns, start
}

// tally counts the connections' requests in o. An implausible answer is
// a wrong one and fails the run; a transport error or a refusal only
// counts as failed.
func tally(o *outcome, conns []*connStats) {
	for _, c := range conns {
		o.attempted += c.okReads + c.okIngests + c.failed + len(c.wrong)
		o.failed += c.failed
		for _, m := range c.wrong {
			o.fail("%s", m)
		}
	}
}

// send issues one scheduled request and records it on cs.
func (e *env) send(client *http.Client, base string, r request, due time.Time, cs *connStats) {
	req := e.tr.request()
	root := e.tr.begin("request", 0, req)
	defer e.tr.end(root)
	sent := time.Now()
	cs.late = append(cs.late, sent.Sub(due))
	if r.stmt == nil {
		var rep ingestReply
		var err error
		e.tr.timed("http.POST /ingest", root, req, func() {
			err = post(client, base+"/ingest?table=r", "text/csv", r.body, &rep)
		})
		done := time.Now()
		cs.lastDone = done
		if err != nil {
			cs.failed++
			cs.ingestLat = append(cs.ingestLat, failedLatency)
			return
		}
		cs.okIngests++
		cs.accepted += rep.Accepted
		cs.rejected += rep.Rejected
		cs.ingestLat = append(cs.ingestLat, done.Sub(due))
		return
	}
	var rep queryReply
	var err error
	e.tr.timed("http.POST /query", root, req, func() {
		err = post(client, base+"/query", "application/json", r.body, &rep)
	})
	done := time.Now()
	cs.lastDone = done
	if err == nil && !plausible(r.stmt, rep.Rows) {
		cs.wrong = append(cs.wrong, fmt.Sprintf("%s: served answer of %d rows", r.stmt.name, len(rep.Rows)))
		cs.readLat = append(cs.readLat, failedLatency)
		return
	}
	if err != nil {
		cs.failed++
		cs.readLat = append(cs.readLat, failedLatency)
		return
	}
	cs.okReads++
	cs.readLat = append(cs.readLat, done.Sub(due))
	cs.service = append(cs.service, done.Sub(sent))
	if rep.Explain != nil {
		cs.explains = append(cs.explains, *rep.Explain)
		cs.lastEx[r.stmt] = *rep.Explain
	}
	cs.byStmt[r.stmt] = append(cs.byStmt[r.stmt], done.Sub(due))
	if e.tr.enabled() {
		cs.half[1] = append(cs.half[1], done.Sub(due))
	} else {
		cs.half[0] = append(cs.half[0], done.Sub(due))
	}
}

// plausible is the per-read check while appends change the answers: a
// scalar statement returns one row, a grouped one at least one.
func plausible(s *stmt, rows [][]int64) bool {
	if strings.Contains(s.sql, "group by") {
		return len(rows) > 0
	}
	return len(rows) == 1
}

// post sends one POST and decodes a 200 answer into out.
func post(client *http.Client, url, ctype string, body []byte, out any) error {
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// queryBody is the POST /query body for q.
func queryBody(q string) []byte {
	b, _ := json.Marshal(map[string]string{"query": q}) // a map of strings always marshals
	return b
}

// checkServed asks the server for each statement and compares the answer
// with the interpreter's on the same database.
func checkServed(e *env, db *swole.DB, client *http.Client, base string, stmts []*stmt, o *outcome) error {
	for _, s := range stmts {
		req := e.tr.request()
		var want [][]int64
		var err error
		e.tr.timed("DB.Query", 0, req, func() { want, err = interpreterAnswer(db, s.sql) })
		if err != nil {
			return err
		}
		var rep queryReply
		e.tr.timed("http.POST /query", 0, req, func() { err = post(client, base+"/query", "application/json", queryBody(s.sql), &rep) })
		o.attempted++
		if err != nil {
			o.fail("%s: %v", s.name, err)
			continue
		}
		if d := diffAnswers(rep.Rows, want); d != nil {
			o.fail("%s: served answer: %v", s.name, d)
		}
	}
	return nil
}

// checkCount compares count(*) on r, served and interpreted, with the
// rows the set-up loaded plus every row an append accepted.
func checkCount(e *env, db *swole.DB, client *http.Client, base string, want int, o *outcome) error {
	const q = "select count(*) from r"
	want64 := int64(want)
	ref, err := interpreterAnswer(db, q)
	if err != nil {
		return err
	}
	var rep queryReply
	err = post(client, base+"/query", "application/json", queryBody(q), &rep)
	o.attempted++
	switch {
	case err != nil:
		o.fail("count(*): %v", err)
	case len(rep.Rows) != 1 || rep.Rows[0][0] != want64 || ref[0][0] != want64:
		o.fail("count(*) on r: served %v, interpreter %v, want %d", rep.Rows, ref, want)
	}
	return nil
}

// scrape reads the server's /metrics: unlabeled series by name, and the
// rejected outcomes of queries and ingests summed under "rejected".
func scrape(e *env, client *http.Client, base string) (map[string]float64, error) {
	var raw []byte
	var err error
	e.tr.timed("http.GET /metrics", 0, e.tr.request(), func() {
		var resp *http.Response
		if resp, err = client.Get(base + "/metrics"); err != nil {
			return
		}
		defer resp.Body.Close()
		raw, err = io.ReadAll(resp.Body)
	})
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if strings.Contains(name, `outcome="rejected"`) {
			vals["rejected"] += v
		}
		vals[name] = v
	}
	return vals, nil
}

// explainLayers sums the Explain counters of the window's reads.
func explainLayers(o *outcome, exs []swole.Explain) {
	var planCached, statsCached, grows, fresh, fallbacks int
	var part []time.Duration
	for _, ex := range exs {
		if ex.PlanCached {
			planCached++
		}
		if ex.StatsCached {
			statsCached++
		}
		grows += ex.HTGrows
		fresh += ex.FreshAllocs
		if ex.Partitioned {
			part = append(part, ex.PartitionTime)
		}
		if ex.Technique == "interpreter-fallback" {
			fallbacks++
		}
	}
	n := float64(max(len(exs), 1))
	o.layers["plancache.hit_frac"] = float64(planCached) / n
	o.layers["stats.cached_frac"] = float64(statsCached) / n
	o.layers["ht.grows"] = float64(grows)
	o.layers["exec.fresh_allocs"] = float64(fresh)
	o.layers["core.partition_ms"] = ms(median(part))
	o.layers["volcano.fallbacks"] = float64(fallbacks)
}

// microSchema is the CSV layout of the microbenchmark table r.
var microSchema = ingest.Schema{
	{Name: "r_a", Kind: ingest.Int64}, {Name: "r_b", Kind: ingest.Int64},
	{Name: "r_x", Kind: ingest.Int64}, {Name: "r_y", Kind: ingest.Int64},
	{Name: "r_c", Kind: ingest.Int64}, {Name: "r_fk", Kind: ingest.Int64},
}

// parseRate times the ingestion kernel alone on the window's batches.
func parseRate(e *env, sched []request, o *outcome) error {
	var k *ingest.Kernel
	var err error
	e.tr.timed("ingest.NewKernel", 0, e.tr.request(), func() { k, err = ingest.NewKernel(microSchema, ingest.Strict) })
	if err != nil {
		return err
	}
	var times []time.Duration
	rows := 0
	for _, r := range sched {
		if r.stmt != nil {
			continue
		}
		k.Reset()
		d := e.tr.timed("Kernel.Parse", 0, e.tr.request(), func() { err = k.Parse(r.body) })
		if err != nil {
			return fmt.Errorf("parsing a generated batch: %w", err)
		}
		rows = k.Accepted()
		times = append(times, d)
	}
	if len(times) > 0 {
		o.layers["ingest.parse_rows_per_s"] = float64(rows) / median(times).Seconds()
	}
	return nil
}

// appendCost times DB.AppendCSV directly on fresh batches, after the
// window, and subtracts the kernel's parse time of the same batches:
// what is left is the append path. It returns the rows it appended.
func appendCost(e *env, db *swole.DB, o *outcome) (int, error) {
	const batches = 9
	k, err := ingest.NewKernel(microSchema, ingest.Strict)
	if err != nil {
		return 0, err
	}
	cfg := e.sz.serve
	var app, parse []time.Duration
	added := 0
	for i := 0; i < batches; i++ {
		body := csvBatch(e, cfg)
		req := e.tr.request()
		k.Reset()
		parse = append(parse, e.tr.timed("Kernel.Parse", 0, req, func() { err = k.Parse(body) }))
		if err != nil {
			return added, err
		}
		var rep swole.IngestReport
		app = append(app, e.tr.timed("DB.AppendCSV", 0, req, func() { rep, err = db.AppendCSV("r", body, swole.IngestStrict) }))
		if err != nil {
			return added, err
		}
		added += rep.Accepted
	}
	o.layers["append.ms"] = ms(median(app) - median(parse))
	return added, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sumDur(ds) / time.Duration(len(ds))
}
