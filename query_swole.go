package swole

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/reprolab/swole/internal/core"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/plan"
	"github.com/reprolab/swole/internal/sql"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
	"github.com/reprolab/swole/internal/volcano"
)

// KernelVariants aggregates the kernel-variant selection counters for one
// execution: which specialized tile kernels ran and how often. All zero
// for interpreter-fallback statements and for plans forced onto the
// tuple-at-a-time kernel. See Explain.Variants.
type KernelVariants = vec.Counters

// Explain describes the technique SWOLE chose for a query and the cost
// model evidence behind the choice.
type Explain struct {
	// Technique is one of: hybrid, value-masking, key-masking,
	// access-merging, positional-bitmap, eager-aggregation, or
	// "interpreter-fallback" when the query shape is outside the SWOLE
	// executor's vocabulary.
	Technique string
	// Shape is the synthesized plan signature — the components the plan
	// synthesizer assembled for this statement, rendered as a compact
	// spine such as "scan+filter(or:2)+join:2+groupagg+having" — or
	// "interpreter-fallback" for statements the synthesizer declined.
	// Signatures are unbounded; serving metrics aggregate them under the
	// bounded buckets of ShapeBucket.
	Shape string
	// Selectivity is the sampled predicate selectivity.
	Selectivity float64
	// Groups is the estimated group count for group-by shapes.
	Groups int
	// HTBytes is the estimated hash table (or bitmap) footprint.
	HTBytes int
	// Costs holds the per-alternative cost model evaluations.
	Costs map[string]float64
	// Merged lists attributes whose accesses were merged.
	Merged []string

	// Workers is the number of morsel workers the statement's scans ran
	// on (0 for interpreter-fallback statements).
	Workers int
	// ScanTime is the wall time of the statement's parallel scan phases
	// (filter bitmaps, partition scatter and main scan).
	ScanTime time.Duration
	// MergeTime is the wall time of merging the workers' partial states
	// and materializing the answer.
	MergeTime time.Duration

	// PlanCached reports the statement was served from the plan cache:
	// parsing, statistics, and the cost-model decision were all replayed
	// from its first execution.
	PlanCached bool
	// StatsCached reports the planning statistics came from the engine's
	// statistics cache rather than a fresh sampling pass.
	StatsCached bool
	// HTGrows counts hash-table growth events during execution; 0 means
	// the cardinality-hinted preallocation held.
	HTGrows int
	// FreshAllocs counts execution resources (worker scratch, hash
	// tables, bitmaps) newly allocated rather than recycled; 0 in steady
	// state.
	FreshAllocs int

	// Partitioned reports the radix-partitioned two-phase path executed
	// the aggregation: phase 1 scattered (key, value) pairs into radix
	// partition buffers, phase 2 aggregated each partition in a
	// cache-resident table (see SetPartitionMode).
	Partitioned bool
	// Partitions is the radix fan-out (power of two); 0 when the direct
	// path ran.
	Partitions int
	// PartitionTime is the wall time of the phase-1 partition scatter.
	PartitionTime time.Duration

	// Variants aggregates the kernel-variant selection counters across the
	// run's workers: adaptive selection-build density classes, native-width
	// compare and widen lanes, fused dict/key masking, and software-prefetch
	// touch counts. All zero for interpreter-fallback statements and for
	// plans forced onto the tuple-at-a-time kernel.
	Variants KernelVariants

	// ShardCount is the number of row-range table shards the execution
	// fanned out over; 0 or 1 means unsharded (see DB.ShardTable).
	ShardCount int
	// ShardTimes holds each shard's partial wall time for a fan-out
	// execution, indexed by shard; nil when unsharded.
	ShardTimes []time.Duration
	// ShardMergeTime is the wall time of folding the shard partials into
	// the final answer (the cross-shard sorted merge-combine for group
	// shapes, summation for scalar ones).
	ShardMergeTime time.Duration

	// ShardErrors attributes per-shard failures of a coordinator
	// scatter-gather (cmd/swoled -shards): entry i names what shard i
	// returned when the query failed partially. Empty on success and for
	// in-process executions, which fail the whole query with the shard
	// attributed in the error instead.
	ShardErrors []string
}

func fromCore(ex core.Explain) Explain {
	return Explain{
		Technique:     ex.Technique.String(),
		Selectivity:   ex.Selectivity,
		Groups:        ex.Groups,
		HTBytes:       ex.HTBytes,
		Costs:         ex.Costs,
		Merged:        ex.Merged,
		Workers:       ex.Workers,
		ScanTime:      ex.ScanTime,
		MergeTime:     ex.MergeTime,
		PlanCached:    ex.PlanCached,
		StatsCached:   ex.StatsCached,
		HTGrows:       ex.HTGrows,
		FreshAllocs:   ex.FreshAllocs,
		Partitioned:   ex.Partitioned,
		Partitions:    ex.Partitions,
		PartitionTime: ex.PartitionTime,
		Variants:      ex.Variants,
	}
}

// QuerySwole executes a SQL statement with the access-aware SWOLE
// executor. Any single-block aggregate SELECT the frontend accepts —
// filtered scans, up to three foreign-key join edges (star or snowflake),
// OR/NOT predicate trees, multiple aggregates (sum, count, avg, min,
// max), GROUP BY, and HAVING — is synthesized into one compiled plan; the
// four classic SWOLE shapes (scalar, group-by, semijoin, and groupjoin
// aggregation) are degenerate cases that compile onto their hand-
// specialized kernels. Statements outside that grammar (no aggregate,
// ORDER BY, unsupported joins) fall back to the interpreted engine,
// reported in the Explain as "interpreter-fallback".
//
// Synthesized statements are cached as prepared plans: re-executing one —
// byte-identical or merely whitespace-reformatted — skips parsing,
// sampling, and the cost-model decision, and runs on recycled execution
// state, allocation-free in the steady state. The returned *Result of a
// cached statement is overwritten by that statement's next execution;
// copy what must outlive it. Replacing a table with CreateTable evicts
// every cached plan and statistic that read it.
func (d *DB) QuerySwole(q string) (*Result, Explain, error) {
	return d.query(context.Background(), q, false)
}

// QueryContext is QuerySwole under a context deadline, built for
// concurrent callers (the swoled server's query path):
//
//   - Cancellation is cooperative at morsel granularity: when ctx is
//     canceled or its deadline passes, every worker stops within one
//     morsel, the engine's pooled scratch survives intact for the next
//     query, and the call returns ctx's error (context.DeadlineExceeded
//     or context.Canceled).
//   - The returned *Result is a private copy, safe to read regardless of
//     what other goroutines execute afterwards (QuerySwole's result, by
//     contrast, aliases cache-owned buffers).
//
// Statements outside the SWOLE vocabulary fall back to the interpreted
// engine, which only honors the deadline between operators, not inside a
// scan.
func (d *DB) QueryContext(ctx context.Context, q string) (*Result, Explain, error) {
	return d.query(ctx, q, true)
}

// query is the shared body of QuerySwole and QueryContext. A panic
// anywhere in the statement's execution — including one a morsel worker
// raised, which the worker gang re-raises on this goroutine — comes back
// as an error naming the statement, and the statement's cached plan is
// evicted so its next execution starts from a fresh compile.
func (d *DB) query(ctx context.Context, q string, copyRes bool) (res *Result, ex Explain, err error) {
	defer func() {
		if r := recover(); r != nil {
			d.evictStatement(q)
			res, ex, err = nil, Explain{}, statementPanic(q, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, Explain{}, err
	}
	if res, ex, found, err := d.cachedRun(ctx, q, copyRes); found {
		return res, ex, err
	}
	p, err := sql.Compile(q, d.db)
	if err != nil {
		return nil, Explain{}, err
	}
	if shape, sig, ok := d.synthesize(p); ok {
		c, err := d.prepareShape(sig, shape)
		if err != nil {
			return nil, Explain{}, err
		}
		d.storePlan(q, c)
		res, ex, err := c.runLocked(ctx, copyRes)
		if err != nil {
			return nil, ex, err
		}
		// First execution: the plan was prepared, not replayed.
		ex.PlanCached = false
		return res, ex, nil
	}
	vres, err := volcano.Run(p, d.db)
	if err != nil {
		return nil, Explain{}, err
	}
	// The interpreter does not poll the context mid-scan; honor an expired
	// deadline on completion so callers see one consistent contract.
	if err := ctx.Err(); err != nil {
		return nil, Explain{}, err
	}
	return &Result{res: vres}, Explain{Technique: "interpreter-fallback", Shape: "interpreter-fallback"}, nil
}

// The plan synthesizer. A compiled statement is no longer pattern-matched
// against a registry of fixed shapes: synthesize destructures the logical
// plan's aggregate spine (Map over Aggregate over a Scan or a left-deep
// FK join chain) into a compositional core.Select spec — root scan, join
// edges, residual, group keys, aggregates, HAVING, projection — and
// assembles one compiled plan from kernel-closure plan cores. The four
// classic SWOLE shapes remain as degenerate cases: when a statement's
// spec collapses to one of them, it compiles onto the hand-specialized
// kernel husk (keeping their multi-worker morsel parallelism, zero-alloc
// warm replays, and shard fan-out); everything else compiles through
// core.PrepareSelect, whose per-edge positional bitmaps and cost-chosen
// disjunction strategy cover the general grammar.

// queryShape is a synthesized SWOLE statement, ready to prepare.
type queryShape interface {
	// tables lists the input tables the compiled plan will read, in the
	// order their versions should be pinned. The first entry is the
	// driving table — the one whose shard layout the fan-out follows.
	tables() []string
	// fields is the result header the statement materializes. It may be
	// called only after prepare.
	fields() volcano.Fields
	// grouped reports whether the statement materializes (key, sum) rows
	// (and its shard partials merge through the GroupMerger) rather than
	// a single scalar (partials sum).
	grouped() bool
	// prepare compiles the shape on the engine and wraps the compiled
	// plan as a cache-entry runner.
	prepare(e *core.Engine) (planRunner, error)
	// clone deep-copies the shape's expression trees. Bind mutates
	// expression nodes in place, so every shard's compile needs a private
	// tree (expr.Clone); sharing one would leave all shards' kernels
	// reading whichever shard's columns bound last.
	clone() queryShape
}

// SupportedShapes lists the bounded shape buckets synthesized plans
// aggregate under (see ShapeBucket): every signature the synthesizer can
// emit folds into one of these; statements outside the synthesizer's
// grammar run on the interpreter ("interpreter-fallback"). The list is
// derived from the component vocabulary, not a registry — there is no
// fixed set of accepted statements anymore. Exposed for tests and
// introspection.
func SupportedShapes() []string {
	// One representative signature per (join, aggregate) component
	// combination; the buckets are their ShapeBucket images, deduplicated.
	sigs := []string{
		"scan+filter+scalaragg",
		"scan+filter+groupagg",
		"scan+filter+join:1+scalaragg",
		"scan+filter+join:1+groupagg",
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(sigs))
	for _, sig := range sigs {
		if b := ShapeBucket(sig); !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// ShapeBucket folds a synthesized plan signature (Explain.Shape) into one
// of the four bounded label values serving metrics aggregate under:
// "scalar-agg", "group-agg", "semijoin-agg", "groupjoin-agg" — or
// "interpreter-fallback", which buckets as itself. Signatures grow with
// the statement (join counts, OR widths, aggregate lists), so exporting
// them raw would make metric label cardinality unbounded; the bucket is
// the join/grouping class, which is what capacity dashboards key on.
func ShapeBucket(sig string) string {
	hasJoin := strings.Contains(sig, "join")
	hasGroup := strings.Contains(sig, "groupagg")
	if !hasGroup && !strings.Contains(sig, "scalaragg") {
		// Not a synthesized signature ("interpreter-fallback", test stubs,
		// the empty shape of a failed execution): already bounded, pass
		// through unchanged.
		return sig
	}
	switch {
	case hasJoin && hasGroup:
		return "groupjoin-agg"
	case hasJoin:
		return "semijoin-agg"
	case hasGroup:
		return "group-agg"
	default:
		return "scalar-agg"
	}
}

// planSignature renders the spec's component spine: scan, filter (with
// its OR width when the root predicate is a disjunction), join edge
// count, the aggregate class (with count and non-additive functions when
// beyond a single sum/count), and HAVING. The signature is Explain.Shape
// for every synthesized statement — including the degenerate ones — and
// buckets through ShapeBucket for metrics.
func planSignature(spec *core.Select) string {
	var b strings.Builder
	b.WriteString("scan")
	if spec.Filter != nil {
		b.WriteString("+filter")
		if n := len(expr.OrTerms(spec.Filter)); n > 1 {
			fmt.Fprintf(&b, "(or:%d)", n)
		}
	}
	if len(spec.Edges) > 0 {
		fmt.Fprintf(&b, "+join:%d", len(spec.Edges))
	}
	if len(spec.GroupBy) > 0 {
		b.WriteString("+groupagg")
	} else {
		b.WriteString("+scalaragg")
	}
	if len(spec.Aggs) > 1 {
		fmt.Fprintf(&b, ":%d", len(spec.Aggs))
	}
	var funcs []string
	seen := map[core.AggKind]bool{}
	for _, a := range spec.Aggs {
		switch a.Kind {
		case core.AggAvg, core.AggMin, core.AggMax:
			if !seen[a.Kind] {
				seen[a.Kind] = true
				funcs = append(funcs, a.Kind.String())
			}
		}
	}
	if len(funcs) > 0 {
		b.WriteString("(" + strings.Join(funcs, ",") + ")")
	}
	if spec.Having != nil {
		b.WriteString("+having")
	}
	return b.String()
}

// synthesize destructures a compiled logical plan into a queryShape and
// its plan signature. It accepts any Map-over-Aggregate spine whose input
// is a Scan or a left-deep chain of FK joins with Scan build sides —
// exactly what the SQL frontend emits for a single-block aggregate SELECT
// without ORDER BY. The root filter is normalized to NNF first, so the
// disjunction planner sees the top-level OR terms.
func (d *DB) synthesize(p plan.Node) (queryShape, string, bool) {
	m, ok := p.(*plan.Map)
	if !ok {
		return nil, "", false
	}
	agg, ok := m.Input.(*plan.Aggregate)
	if !ok || len(agg.Aggs) == 0 {
		return nil, "", false
	}

	// Destructure the join chain bottom-up: the probe spine ends at the
	// root scan, each join's build side is a parent scan.
	var joins []*plan.Join
	node := agg.Input
	for {
		j, jok := node.(*plan.Join)
		if !jok {
			break
		}
		if j.Semi {
			return nil, "", false
		}
		joins = append(joins, j)
		node = j.Probe
	}
	root, ok := node.(*plan.Scan)
	if !ok {
		return nil, "", false
	}
	for i, j := 0, len(joins)-1; i < j; i, j = i+1, j-1 {
		joins[i], joins[j] = joins[j], joins[i]
	}
	for _, j := range joins {
		if _, bok := j.Build.(*plan.Scan); !bok {
			return nil, "", false
		}
	}

	// NNF the root predicate (structure-sharing; the compiled tree is
	// ours) so OrTerms exposes the disjuncts to the cost model, for the
	// degenerate kernels and the generic executor alike.
	rootFilter := expr.NNF(root.Filter)

	spec := core.Select{
		Root:    root.Table,
		Filter:  rootFilter,
		GroupBy: agg.GroupBy,
		Having:  agg.Having,
	}
	var residual []expr.Expr
	for _, j := range joins {
		b := j.Build.(*plan.Scan)
		// Src: which side owns the FK column — the root scan or an earlier
		// edge's parent (snowflake chain). Column names are query-unique.
		src := -1
		if d.db.MustTable(root.Table).Column(j.ProbeKey) == nil {
			src = -2
			for ei := range spec.Edges {
				if d.db.MustTable(spec.Edges[ei].Parent).Column(j.ProbeKey) != nil {
					src = ei
					break
				}
			}
			if src == -2 {
				return nil, "", false
			}
		}
		spec.Edges = append(spec.Edges, core.SelectEdge{
			Src: src, FK: j.ProbeKey, Parent: b.Table, PK: j.BuildKey, Filter: b.Filter,
		})
		if j.Residual != nil {
			// FK inner joins never drop or duplicate probe rows, so a
			// mid-chain residual evaluates identically over the full row.
			residual = append(residual, j.Residual)
		}
	}
	switch len(residual) {
	case 0:
	case 1:
		spec.Residual = residual[0]
	default:
		spec.Residual = &expr.Logic{Op: expr.And, Args: residual}
	}
	aggKinds := map[plan.AggFunc]core.AggKind{
		plan.Sum: core.AggSum, plan.Count: core.AggCount, plan.Avg: core.AggAvg,
		plan.Min: core.AggMin, plan.Max: core.AggMax,
	}
	for _, a := range agg.Aggs {
		spec.Aggs = append(spec.Aggs, core.SelectAgg{Kind: aggKinds[a.Func], Arg: a.Arg, As: a.As})
	}
	for _, e := range m.Exprs {
		spec.Project = append(spec.Project, core.SelectProj{Expr: e.Expr, As: e.As})
	}

	sig := planSignature(&spec)
	if s, ok := d.degenerate(m, agg, root, rootFilter, joins); ok {
		return s, sig, true
	}
	tabs := []string{spec.Root}
	for _, e := range spec.Edges {
		tabs = append(tabs, e.Parent)
	}
	return &selectShape{spec: spec, tabs: tabs}, sig, true
}

// degenerate recognizes the statements the four hand-specialized husks
// cover — a single sum/count(*) aggregate, no HAVING, canonical
// projection, at most one join edge with the classic restrictions — and
// returns the matching shape. These keep their multi-worker kernels,
// shard fan-out, and zero-alloc warm paths; anything richer compiles
// through the generic executor.
func (d *DB) degenerate(m *plan.Map, agg *plan.Aggregate, root *plan.Scan, rootFilter expr.Expr, joins []*plan.Join) (queryShape, bool) {
	if len(agg.Aggs) != 1 || agg.Having != nil || len(joins) > 1 {
		return nil, false
	}
	spec := agg.Aggs[0]
	switch {
	case spec.Func == plan.Sum && spec.Arg != nil:
		// sum(expr) passes through.
	case spec.Func == plan.Count && spec.Arg == nil:
		// count(*) is sum(1).
		spec.Arg = &expr.Const{Val: 1}
	default:
		return nil, false
	}
	// Canonical projection: the group keys in order under their own names,
	// then the aggregate alias. Anything else (reordered or aliased output
	// columns) needs the generic executor's projection stage.
	if len(m.Exprs) != len(agg.GroupBy)+1 {
		return nil, false
	}
	for i, g := range agg.GroupBy {
		c, cok := m.Exprs[i].Expr.(*expr.Col)
		if !cok || c.Name != g || m.Exprs[i].As != g {
			return nil, false
		}
	}
	if c, cok := m.Exprs[len(agg.GroupBy)].Expr.(*expr.Col); !cok || c.Name != spec.As || m.Exprs[len(agg.GroupBy)].As != spec.As {
		return nil, false
	}

	if len(joins) == 0 {
		switch len(agg.GroupBy) {
		case 0:
			return scalarShape{
				q:       core.ScalarAgg{Table: root.Table, Filter: rootFilter, Agg: spec.Arg},
				aggName: spec.As,
			}, true
		case 1:
			return groupShape{
				q: core.GroupAgg{
					Table: root.Table, Filter: rootFilter,
					Key: expr.NewCol(agg.GroupBy[0]), Agg: spec.Arg,
				},
				keyName: agg.GroupBy[0],
				aggName: spec.As,
			}, true
		}
		return nil, false
	}

	j := joins[0]
	build := j.Build.(*plan.Scan)
	if j.Residual != nil || !colsSubset(expr.Cols(spec.Arg), d.db.MustTable(root.Table)) {
		return nil, false
	}
	switch {
	case len(agg.GroupBy) == 0:
		return semiShape{
			q: core.SemiJoinAgg{
				Probe: root.Table, Build: build.Table,
				FK: j.ProbeKey, PK: j.BuildKey,
				ProbeFilter: rootFilter, BuildFilter: build.Filter,
				Agg: spec.Arg,
			},
			aggName: spec.As,
		}, true
	case len(agg.GroupBy) == 1 && agg.GroupBy[0] == j.ProbeKey && rootFilter == nil:
		return gjoinShape{
			q: core.GroupJoinAgg{
				Probe: root.Table, Build: build.Table,
				FK: j.ProbeKey, PK: j.BuildKey,
				BuildFilter: build.Filter, Agg: spec.Arg,
			},
			keyName: agg.GroupBy[0],
			aggName: spec.As,
		}, true
	}
	return nil, false
}

// scalarShape: filtered scalar aggregation over one table.
type scalarShape struct {
	q       core.ScalarAgg
	aggName string
}

func (s scalarShape) tables() []string       { return []string{s.q.Table} }
func (s scalarShape) fields() volcano.Fields { return volcano.Fields{{Name: s.aggName}} }
func (s scalarShape) grouped() bool          { return false }
func (s scalarShape) prepare(e *core.Engine) (planRunner, error) {
	p, err := e.PrepareScalarAgg(s.q)
	if err != nil {
		return nil, err
	}
	return scalarRunner{p}, nil
}
func (s scalarShape) clone() queryShape {
	s.q.Filter = expr.Clone(s.q.Filter)
	s.q.Agg = expr.Clone(s.q.Agg)
	return s
}

// groupShape: filtered single-key group-by aggregation over one table.
type groupShape struct {
	q       core.GroupAgg
	keyName string
	aggName string
}

func (s groupShape) tables() []string { return []string{s.q.Table} }
func (s groupShape) fields() volcano.Fields {
	return volcano.Fields{{Name: s.keyName}, {Name: s.aggName}}
}
func (s groupShape) grouped() bool { return true }
func (s groupShape) prepare(e *core.Engine) (planRunner, error) {
	p, err := e.PrepareGroupAgg(s.q)
	if err != nil {
		return nil, err
	}
	return groupRunner{p}, nil
}
func (s groupShape) clone() queryShape {
	s.q.Filter = expr.Clone(s.q.Filter)
	s.q.Key = expr.Clone(s.q.Key)
	s.q.Agg = expr.Clone(s.q.Agg)
	return s
}

// semiShape: semijoin aggregation over a registered foreign key.
type semiShape struct {
	q       core.SemiJoinAgg
	aggName string
}

func (s semiShape) tables() []string       { return []string{s.q.Probe, s.q.Build} }
func (s semiShape) fields() volcano.Fields { return volcano.Fields{{Name: s.aggName}} }
func (s semiShape) grouped() bool          { return false }
func (s semiShape) prepare(e *core.Engine) (planRunner, error) {
	p, err := e.PrepareSemiJoinAgg(s.q)
	if err != nil {
		return nil, err
	}
	return semiRunner{p}, nil
}
func (s semiShape) clone() queryShape {
	s.q.ProbeFilter = expr.Clone(s.q.ProbeFilter)
	s.q.BuildFilter = expr.Clone(s.q.BuildFilter)
	s.q.Agg = expr.Clone(s.q.Agg)
	return s
}

// gjoinShape: groupjoin aggregation keyed by the probe's foreign key.
type gjoinShape struct {
	q       core.GroupJoinAgg
	keyName string
	aggName string
}

func (s gjoinShape) tables() []string { return []string{s.q.Probe, s.q.Build} }
func (s gjoinShape) fields() volcano.Fields {
	return volcano.Fields{{Name: s.keyName}, {Name: s.aggName}}
}
func (s gjoinShape) grouped() bool { return true }
func (s gjoinShape) prepare(e *core.Engine) (planRunner, error) {
	p, err := e.PrepareGroupJoinAgg(s.q)
	if err != nil {
		return nil, err
	}
	return gjoinRunner{p}, nil
}
func (s gjoinShape) clone() queryShape {
	s.q.BuildFilter = expr.Clone(s.q.BuildFilter)
	s.q.Agg = expr.Clone(s.q.Agg)
	return s
}

// selectShape: the generic synthesized statement, compiled through
// core.PrepareSelect. It always executes single-arm on the catalog
// engine — which holds the full concatenated tables even when a table is
// sharded — because the general grammar (HAVING, avg/min/max, multi-key
// grouping) is not distributive over shard partials the way the
// degenerate shapes' sums are.
type selectShape struct {
	spec core.Select
	tabs []string
	prep *core.PreparedSelect // set by prepare; fields() reads its header
}

func (s *selectShape) tables() []string { return s.tabs }
func (s *selectShape) fields() volcano.Fields {
	rf := s.prep.ResultFields()
	fs := make(volcano.Fields, len(rf))
	for i, f := range rf {
		fs[i] = volcano.Field{Name: f.Name, Dict: f.Dict, Log: f.Log}
	}
	return fs
}
func (s *selectShape) grouped() bool { return len(s.spec.GroupBy) > 0 }
func (s *selectShape) prepare(e *core.Engine) (planRunner, error) {
	p, err := e.PrepareSelect(s.spec)
	if err != nil {
		return nil, err
	}
	s.prep = p
	return selectRunner{p}, nil
}
func (s *selectShape) clone() queryShape {
	c := *s
	c.prep = nil
	c.spec.Filter = expr.Clone(s.spec.Filter)
	c.spec.Residual = expr.Clone(s.spec.Residual)
	c.spec.Having = expr.Clone(s.spec.Having)
	c.spec.Edges = append([]core.SelectEdge(nil), s.spec.Edges...)
	for i := range c.spec.Edges {
		c.spec.Edges[i].Filter = expr.Clone(c.spec.Edges[i].Filter)
	}
	c.spec.Aggs = append([]core.SelectAgg(nil), s.spec.Aggs...)
	for i := range c.spec.Aggs {
		c.spec.Aggs[i].Arg = expr.Clone(c.spec.Aggs[i].Arg)
	}
	c.spec.Project = append([]core.SelectProj(nil), s.spec.Project...)
	for i := range c.spec.Project {
		c.spec.Project[i].Expr = expr.Clone(c.spec.Project[i].Expr)
	}
	return &c
}

// prepareShape compiles the synthesized statement and wraps it as a cache
// entry with its table-version and shard-epoch dependencies and reusable
// result. Over an unsharded driving table the statement compiles once on
// the catalog engine; over a sharded one it compiles one plan per shard
// — the same shape cloned (private expression trees) and prepared
// against each shard's engine, whose database holds that shard's row
// range — and the entry's fan carries each arm with its shard read lock.
// Generic selectShape statements never fan out: their answers are not
// mergeable from shard partials, and the catalog engine's tables always
// hold every shard's rows, so the single-arm plan stays correct under
// any shard layout (the shard-epoch dependency still drops it when a
// shard's data changes).
func (d *DB) prepareShape(sig string, s queryShape) (*cachedPlan, error) {
	c := &cachedPlan{shape: sig, grouped: s.grouped()}
	for _, tn := range s.tables() {
		c.deps = append(c.deps, tableDep{name: tn, ver: d.db.TableVersion(tn), epoch: d.shardEpoch(tn)})
	}
	d.shardMu.RLock()
	meta, fleet := d.shardFanLocked(s.tables()[0])
	if _, generic := s.(*selectShape); generic {
		meta = nil
	}
	if meta == nil {
		d.shardMu.RUnlock()
		r, err := s.prepare(d.engine)
		if err != nil {
			return nil, err
		}
		c.fan = []shardRun{{exec: r}}
	} else {
		// The arms compile under the read lock, so the layout and the
		// members' cost parameters cannot change under them.
		err := c.prepareArms(s, meta, fleet)
		d.shardMu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	c.vres.Fields = s.fields()
	c.res = Result{res: &c.vres}
	return c, nil
}

// prepareArms compiles one plan per shard of the fan-out. Callers hold
// d.shardMu (read).
func (c *cachedPlan) prepareArms(s queryShape, meta *tableShards, fleet []*fleetShard) error {
	for i := 0; i < meta.k; i++ {
		r, err := s.clone().prepare(fleet[i].engine)
		if err != nil {
			return err
		}
		c.fan = append(c.fan, shardRun{shard: i, exec: r, lock: meta.locks[i]})
	}
	return nil
}

func colsSubset(cols []string, t *storage.Table) bool {
	for _, c := range cols {
		if t.Column(c) == nil {
			return false
		}
	}
	return true
}

// scalarResult and groupResult materialize one-off results for paths that
// bypass the plan cache (CompareStrategies).
func scalarResult(name string, v int64) *Result {
	return &Result{res: &volcano.Result{
		Fields: volcano.Fields{{Name: name}},
		Rows:   []volcano.Row{{v}},
	}}
}

func groupResult(keyName, aggName string, groups map[int64]int64) *Result {
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	res := &volcano.Result{Fields: volcano.Fields{{Name: keyName}, {Name: aggName}}}
	for _, k := range keys {
		res.Rows = append(res.Rows, volcano.Row{k, groups[k]})
	}
	return &Result{res: res}
}
