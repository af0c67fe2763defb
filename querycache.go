package swole

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/volcano"
)

// Plan cache: QuerySwole remembers every SWOLE-shaped statement it has
// executed as a prepared query (see core's Prepared* types). A repeated
// statement skips the SQL frontend, the sampling pass, and the cost-model
// evaluation entirely, and executes on preallocated resources — the
// steady-state path allocates nothing after its first execution.
//
// Two keys index the cache. The raw statement text is the fast key: a
// byte-identical re-execution hits with a single map lookup and zero
// allocations. A whitespace-normalized form is the slow key, so that
// reformatted spellings of one statement ("select  sum(x)\nfrom t" vs
// "select sum(x) from t") share one prepared plan; raw-text aliases are
// installed on normalized hits, making every spelling fast from its
// second use.
//
// Each entry records the versions of the tables it reads. Entries whose
// tables have been replaced are dropped lazily on lookup, and
// CreateTable evicts eagerly (plans and statistics both), so a mutated
// table can never serve a stale answer.
//
// The *Result returned by a cached execution is owned by the cache entry
// and overwritten by the next execution of the same statement; callers
// that need the answer past that point copy it (Rows already copies row
// headers; the data itself is immutable until the next run).

// maxCachedPlans bounds the cache. Past the bound the cache is cleared
// wholesale: plans re-prepare in one execution, and a workload with more
// than maxCachedPlans distinct steady-state statements is not steady.
const maxCachedPlans = 256

// tableDep pins one input table at the version AND shard epoch the plan
// was prepared against. The epoch moves on ShardTable (layout change, no
// data change) and ReplaceShard (data change in one shard), so a plan
// whose fan-out no longer matches the table's layout is dropped on its
// next lookup — and only that table's plans are, which is the shard-
// aware invalidation granularity TestInvalidationGranularity pins.
type tableDep struct {
	name  string
	ver   uint64
	epoch uint64
}

// planRunner executes one compiled core plan under a context deadline
// and returns its partial answer: the scalar sum for single-value
// shapes, the sorted group partial for group shapes, or the materialized
// row set for generic synthesized plans (which never fan out). Returning
// partials rather than writing the entry's result directly is what lets
// the fan-out path collect per-shard answers and merge them afterwards;
// the cache itself stays shape-blind.
type planRunner interface {
	run(ctx context.Context) (sum int64, groups *core.GroupResult, rows *core.SelectResult, ex core.Explain, err error)
}

type scalarRunner struct{ p *core.PreparedScalarAgg }
type groupRunner struct{ p *core.PreparedGroupAgg }
type semiRunner struct{ p *core.PreparedSemiJoinAgg }
type gjoinRunner struct{ p *core.PreparedGroupJoinAgg }
type selectRunner struct{ p *core.PreparedSelect }

func (r scalarRunner) run(ctx context.Context) (int64, *core.GroupResult, *core.SelectResult, core.Explain, error) {
	sum, ex, err := r.p.RunContext(ctx)
	return sum, nil, nil, ex, err
}

func (r groupRunner) run(ctx context.Context) (int64, *core.GroupResult, *core.SelectResult, core.Explain, error) {
	g, ex, err := r.p.RunContext(ctx)
	return 0, g, nil, ex, err
}

func (r semiRunner) run(ctx context.Context) (int64, *core.GroupResult, *core.SelectResult, core.Explain, error) {
	sum, ex, err := r.p.RunContext(ctx)
	return sum, nil, nil, ex, err
}

func (r gjoinRunner) run(ctx context.Context) (int64, *core.GroupResult, *core.SelectResult, core.Explain, error) {
	g, ex, err := r.p.RunContext(ctx)
	return 0, g, nil, ex, err
}

func (r selectRunner) run(ctx context.Context) (int64, *core.GroupResult, *core.SelectResult, core.Explain, error) {
	res, ex, err := r.p.RunContext(ctx)
	return 0, nil, res, ex, err
}

// shardRun is one arm of a statement's fan-out: the plan compiled
// against one shard's engine plus that shard's read lock. Unsharded
// statements have a single arm with a nil lock.
type shardRun struct {
	shard int
	exec  planRunner
	lock  *sync.RWMutex
}

// cachedPlan is one prepared statement plus its reusable result
// materialization.
type cachedPlan struct {
	// mu serializes executions of this statement: the fan scratch, the
	// merger, and the result buffers below are all per-entry and reused
	// across runs. Different statements run in parallel.
	mu      sync.Mutex
	fan     []shardRun
	grouped bool // shape materializes (key, sum) rows
	shape   string
	deps    []tableDep

	// Fan-out scratch and the cross-shard merger (reused across runs; the
	// merge is the same finishCombine path the worker merge uses).
	merger   core.GroupMerger
	partials []*core.GroupResult
	sums     []int64
	exs      []core.Explain
	errs     []error
	times    []time.Duration

	// Reused result: vres's rows are slice headers into flat.
	res  Result
	vres volcano.Result
	flat []int64
}

// putScalar rematerializes a single-value result.
func (c *cachedPlan) putScalar(sum int64) {
	c.flat = append(c.flat[:0], sum)
	c.vres.Rows = append(c.vres.Rows[:0], c.flat[0:1])
}

// putGroups rematerializes a (key, sum)-per-row result. GroupResult's
// interleaved layout IS the row layout, so the row headers alias the
// plan's flat result array directly — nothing is copied. A steady-state
// rerun whose group count and backing array are unchanged (the common
// case: the plan's buffers are stable once warm) skips even the header
// rebuild; at 1M groups that skip is ~24 MB of writes per run. The
// aliasing is safe under the cache's ownership contract: the entry's
// result and the plan's buffers are overwritten together by the next
// execution, and concurrent callers receive a cloneResult copy.
func (c *cachedPlan) putGroups(g *core.GroupResult) {
	if n := g.Len(); n == len(c.vres.Rows) &&
		(n == 0 || &c.vres.Rows[0][0] == &g.Flat[0]) {
		return
	}
	c.vres.Rows = c.vres.Rows[:0]
	for i := 0; i < len(g.Flat); i += 2 {
		c.vres.Rows = append(c.vres.Rows, g.Flat[i:i+2])
	}
}

// putRows rematerializes an arbitrary-width row set (a generic
// synthesized plan's answer) into the entry's flat buffer and row
// headers, reusing both across runs.
func (c *cachedPlan) putRows(res *core.SelectResult) {
	c.flat = c.flat[:0]
	for _, r := range res.Rows {
		c.flat = append(c.flat, r...)
	}
	c.vres.Rows = c.vres.Rows[:0]
	off := 0
	for _, r := range res.Rows {
		c.vres.Rows = append(c.vres.Rows, c.flat[off:off+len(r)])
		off += len(r)
	}
}

// fresh reports whether every input table is still at its prepared
// version and shard epoch.
func (c *cachedPlan) fresh(d *DB) bool {
	for _, dep := range c.deps {
		if d.db.TableVersion(dep.name) != dep.ver || d.shardEpoch(dep.name) != dep.epoch {
			return false
		}
	}
	return true
}

// dependsOn reports whether the plan reads the named table.
func (c *cachedPlan) dependsOn(table string) bool {
	for _, dep := range c.deps {
		if dep.name == table {
			return true
		}
	}
	return false
}

// run executes the prepared plan and rematerializes the entry's result in
// place. Allocation-free once flat and the row-header array have reached
// the result's size. A canceled run returns the context's error with the
// entry (and the plan's pooled resources) intact for the next execution.
// Callers hold c.mu.
func (c *cachedPlan) run(ctx context.Context) (*Result, Explain, error) {
	if len(c.fan) == 1 && c.fan[0].lock == nil {
		sum, g, rows, cex, err := c.fan[0].exec.run(ctx)
		ex := fromCore(cex)
		ex.Shape = c.shape
		if err != nil {
			return nil, ex, err
		}
		switch {
		case rows != nil:
			c.putRows(rows)
		case c.grouped:
			c.putGroups(g)
		default:
			c.putScalar(sum)
		}
		return &c.res, ex, nil
	}
	return c.runFan(ctx)
}

// runFan scatter-gathers the statement across its shards: each arm runs
// on its own engine (its own worker gang) concurrently, holding only its
// shard's read lock, and the partials merge on this goroutine — group
// shapes through the merger's sorted merge-combine, scalar shapes by
// summation. A failed or canceled arm cancels the rest and the error
// carries the shard's attribution.
func (c *cachedPlan) runFan(ctx context.Context) (*Result, Explain, error) {
	n := len(c.fan)
	if cap(c.partials) < n {
		c.partials = make([]*core.GroupResult, n)
		c.sums = make([]int64, n)
		c.exs = make([]core.Explain, n)
		c.errs = make([]error, n)
		c.times = make([]time.Duration, n)
	}
	partials, sums := c.partials[:n], c.sums[:n]
	exs, errs, times := c.exs[:n], c.errs[:n], c.times[:n]
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := range c.fan {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			errs[i] = c.runArm(fanCtx, i, sums, partials, exs)
			times[i] = time.Since(start)
			if errs[i] != nil {
				cancel() // a lost shard fails the query; stop the others
			}
		}(i)
	}
	wg.Wait()
	ex := fromCore(exs[0])
	ex.Shape = c.shape
	ex.ShardCount = n
	ex.ShardTimes = append([]time.Duration(nil), times...)
	for i := range errs {
		if p, ok := errs[i].(*armPanic); ok {
			panic(fmt.Errorf("shard %d: %w", c.fan[i].shard, p))
		}
	}
	for i := range errs {
		if errs[i] != nil {
			return nil, ex, fmt.Errorf("shard %d: %w", c.fan[i].shard, errs[i])
		}
	}
	for i := 1; i < n; i++ {
		ex.FreshAllocs += exs[i].FreshAllocs
		ex.HTGrows += exs[i].HTGrows
		ex.Variants.Add(&exs[i].Variants)
		if exs[i].PartitionTime > ex.PartitionTime {
			ex.PartitionTime = exs[i].PartitionTime
		}
	}
	mergeStart := time.Now()
	if c.grouped {
		c.putGroups(c.merger.Merge(partials))
	} else {
		total := int64(0)
		for _, s := range sums {
			total += s
		}
		c.putScalar(total)
	}
	ex.ShardMergeTime = time.Since(mergeStart)
	return &c.res, ex, nil
}

// runArm executes fan arm i under its shard's read lock. The arm runs on
// its own goroutine, so a panic there is recovered into the arm's error
// rather than left to crash the process.
func (c *cachedPlan) runArm(ctx context.Context, i int, sums []int64, partials []*core.GroupResult, exs []core.Explain) (err error) {
	arm := &c.fan[i]
	arm.lock.RLock()
	defer arm.lock.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			err = &armPanic{r}
		}
	}()
	sums[i], partials[i], _, exs[i], err = arm.exec.run(ctx)
	return err
}

// armPanic carries a fan arm's panic back to the statement's goroutine,
// which re-raises it there for DB.query to report and evict.
type armPanic struct{ value any }

func (p *armPanic) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// cloneResult deep-copies a materialized result into caller-owned memory,
// detaching it from the cache entry's reused buffers. Fields are immutable
// and shared.
func cloneResult(src *volcano.Result) *Result {
	total := 0
	for _, r := range src.Rows {
		total += len(r)
	}
	flat := make([]int64, 0, total)
	rows := make([]volcano.Row, len(src.Rows))
	for i, r := range src.Rows {
		start := len(flat)
		flat = append(flat, r...)
		rows[i] = flat[start:]
	}
	return &Result{res: &volcano.Result{Fields: src.Fields, Rows: rows}}
}

// normalizeQuery collapses runs of whitespace to single spaces so
// reformatted spellings of one statement share a cache entry. Case is
// preserved: string literals are case-significant, and a lowercased key
// would conflate them. Single-quoted literals are copied verbatim —
// whitespace inside them is data, and collapsing it would alias two
// statements that differ only inside a quoted string onto one plan.
// A doubled quote (”) inside a literal is the SQL escape for a quote,
// not a close-and-reopen, and stays inside the literal.
func normalizeQuery(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	pendingSpace := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case c == '\'':
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
			for i++; i < len(q); i++ {
				b.WriteByte(q[i])
				if q[i] == '\'' {
					if i+1 < len(q) && q[i+1] == '\'' {
						i++
						b.WriteByte(q[i])
						continue
					}
					break
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
		}
	}
	return b.String()
}

// cachedRun serves a statement from the plan cache; found reports whether
// a current cache entry handled it (possibly with an error — a canceled
// execution). The DB mutex covers only the map lookup; the run itself
// holds the entry's own lock, so different statements execute in
// parallel (down to the engine locks) while executions of one statement
// — which reuse per-entry result buffers — still serialize. With copyRes
// the caller receives a private copy of the result, detached from the
// entry's reused buffers — the concurrent-caller contract of
// QueryContext.
func (d *DB) cachedRun(ctx context.Context, q string, copyRes bool) (res *Result, ex Explain, found bool, err error) {
	d.mu.Lock()
	c := d.plans[q]
	if c == nil {
		norm := normalizeQuery(q)
		if c = d.normPlans[norm]; c == nil {
			d.mu.Unlock()
			return nil, Explain{}, false, nil
		}
		// Alias the raw spelling so its next execution is a single lookup.
		d.plans[q] = c
	}
	d.mu.Unlock()
	// The freshness check reads shard epochs (shardMu), so it must run
	// outside d.mu: the lock order is shardMu before d.mu (ReplaceShard
	// holds shardMu while evicting plans). A plan going stale between this
	// check and the run is benign — it executes against the immutable
	// arrays it was bound to, answering as of just before the swap.
	if !c.fresh(d) {
		d.mu.Lock()
		d.dropPlanLocked(c)
		d.mu.Unlock()
		return nil, Explain{}, false, nil
	}
	res, ex, err = c.runLocked(ctx, copyRes)
	return res, ex, true, err
}

// runLocked executes the entry under its lock; with copyRes the caller
// receives a private copy of the result.
func (c *cachedPlan) runLocked(ctx context.Context, copyRes bool) (*Result, Explain, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ex, err := c.run(ctx)
	if err != nil {
		return nil, ex, err
	}
	if copyRes {
		res = cloneResult(&c.vres)
	}
	return res, ex, nil
}

// evictStatement drops the cache entry serving q, under any spelling.
func (d *DB) evictStatement(q string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.plans[q]
	if c == nil {
		c = d.normPlans[normalizeQuery(q)]
	}
	if c != nil {
		d.dropPlanLocked(c)
	}
}

// statementPanic turns a panic raised while executing statement q into
// an error naming the statement; an error panic value (such as the
// worker gang's *exec.WorkerPanic) stays reachable through errors.As.
func statementPanic(q string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("swole: statement %q failed: %w", q, err)
	}
	return fmt.Errorf("swole: statement %q failed: panic: %v", q, r)
}

// storePlan inserts a freshly prepared statement under both keys.
//
// A wholesale flush turns every cached plan's buffers (per-worker hash
// tables sized to their group counts, bitmaps) into garbage at once. The
// collector's next target was set while the cache was full, so left
// alone the heap would grow to about twice the full cache before that
// garbage is reclaimed; a background collection started at the flush
// reclaims it while the new cache is still small, which keeps peak
// memory near one full cache however fast statements arrive.
func (d *DB) storePlan(q string, c *cachedPlan) {
	d.mu.Lock()
	flushed := false
	if len(d.plans) >= maxCachedPlans || len(d.normPlans) >= maxCachedPlans {
		d.plans = map[string]*cachedPlan{}
		d.normPlans = map[string]*cachedPlan{}
		flushed = true
	}
	d.plans[q] = c
	d.normPlans[normalizeQuery(q)] = c
	d.mu.Unlock()
	if flushed {
		go runtime.GC()
	}
}

// dropPlanLocked removes every key pointing at the entry. Callers hold
// d.mu.
func (d *DB) dropPlanLocked(c *cachedPlan) {
	for k, v := range d.plans {
		if v == c {
			delete(d.plans, k)
		}
	}
	for k, v := range d.normPlans {
		if v == c {
			delete(d.normPlans, k)
		}
	}
}

// invalidateTable evicts cached statistics and plans that read the named
// table. Called on every CreateTable.
func (d *DB) invalidateTable(table string) {
	d.engine.InvalidateStats(table)
	d.shardMu.RLock()
	for _, fs := range d.fleet {
		fs.engine.InvalidateStats(table)
	}
	d.shardMu.RUnlock()
	d.evictPlans(table)
}

// evictPlans drops the cached plans that read the named table — and only
// those; other tables' plans stay warm. ShardTable uses it directly
// (layout changed, data and statistics did not).
func (d *DB) evictPlans(table string) {
	d.mu.Lock()
	for k, c := range d.plans {
		if c.dependsOn(table) {
			delete(d.plans, k)
		}
	}
	for k, c := range d.normPlans {
		if c.dependsOn(table) {
			delete(d.normPlans, k)
		}
	}
	d.mu.Unlock()
}

// PlanCacheLen reports the number of distinct raw-text keys in the plan
// cache; exposed for tests and introspection.
func (d *DB) PlanCacheLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.plans)
}

// SetWorkers pins the SWOLE executor's morsel worker count; 0 restores
// the default (one per CPU). Prepared plans bake in their worker count,
// so changing it clears the plan cache.
func (d *DB) SetWorkers(n int) {
	d.mu.Lock()
	d.plans = map[string]*cachedPlan{}
	d.normPlans = map[string]*cachedPlan{}
	d.mu.Unlock()
	d.engine.Workers = n
	d.shardMu.RLock()
	for _, fs := range d.fleet {
		fs.engine.Workers = n
	}
	d.shardMu.RUnlock()
}

// PartitionMode selects how the SWOLE executor decides between direct
// and radix-partitioned group-by execution; see SetPartitionMode.
type PartitionMode = core.PartitionMode

// Partition modes, re-exported from the core engine.
const (
	// PartitionAuto defers to the cost model (the default): the radix
	// path runs when the estimated hash-table footprint overflows the
	// cache budget and the two-phase model is cheaper.
	PartitionAuto = core.PartitionAuto
	// PartitionOff forces the direct per-worker hash-table path.
	PartitionOff = core.PartitionOff
	// PartitionOn forces the radix-partitioned path (benchmarks,
	// experiments).
	PartitionOn = core.PartitionOn
)

// SetPartitionMode pins the direct-vs-partitioned execution decision for
// group-by aggregations. Prepared plans bake the decision in, so changing
// the mode clears the plan cache, like SetWorkers.
func (d *DB) SetPartitionMode(m PartitionMode) {
	d.mu.Lock()
	d.plans = map[string]*cachedPlan{}
	d.normPlans = map[string]*cachedPlan{}
	d.mu.Unlock()
	d.engine.Partition = m
	d.shardMu.RLock()
	for _, fs := range d.fleet {
		fs.engine.Partition = m
	}
	d.shardMu.RUnlock()
}

// Close releases the executor's persistent worker goroutines, including
// every shard engine's gang. The DB remains usable after Close (gangs
// respawn on demand); Close exists for goroutine hygiene when many DBs
// are created in one process.
func (d *DB) Close() {
	d.engine.Close()
	d.shardMu.RLock()
	for _, fs := range d.fleet {
		fs.engine.Close()
	}
	d.shardMu.RUnlock()
}
