// Package core is the reusable heart of SWOLE: given a query shape, it
// estimates statistics, consults the cost models of internal/cost, picks a
// technique — predicate pushdown (hybrid) or one of the paper's pullup
// techniques (value masking, key masking, positional bitmaps, eager
// aggregation) — and executes it over the column store with generic tiled
// kernels. Each execution returns an Explain describing the decision, the
// model costs, and the statistics they were based on.
//
// Every shape executes through one compiled-plan pipeline (compile.go):
// compile validates and plans the query, binds the chosen kernel and
// plan-owned buffers, and run() executes on the engine's persistent
// morsel-worker gang. The public entry points are modes of that pipeline —
// Prepare* compiles and keeps, the one-shot methods compile once and cache
// the plan by query value (replays allocate nothing), and *Forced compiles
// with a technique override and recycles the plan husk through a free
// list. There is exactly one kernel per (shape, technique).
//
// The hand-specialized kernels in internal/micro and internal/tpch are the
// measured reproductions of the paper's figures (the paper hand-coded each
// strategy); this package is what a downstream user calls for their own
// queries.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// Technique identifies the physical technique chosen for an operator.
type Technique int

// Techniques SWOLE chooses among.
const (
	TechHybrid Technique = iota
	TechValueMasking
	TechKeyMasking
	TechAccessMerging
	TechPositionalBitmap
	TechEagerAggregation
	TechDataCentric
)

// String names the technique.
func (t Technique) String() string {
	return [...]string{
		"hybrid", "value-masking", "key-masking", "access-merging",
		"positional-bitmap", "eager-aggregation", "data-centric",
	}[t]
}

// Explain records a planning decision.
type Explain struct {
	Technique   Technique
	Selectivity float64 // estimated predicate selectivity
	Groups      int     // estimated group count (group-by shapes)
	HTBytes     int     // estimated hash table footprint
	CompCost    float64 // estimated per-tuple computation cost
	Costs       map[string]float64
	Merged      []string // attributes whose accesses were merged

	// Workers is the number of morsel workers the executor ran on; the
	// cost models were evaluated with Params.ForWorkers(Workers).
	Workers int
	// ScanTime is the wall time of the parallel scan phases (build and
	// probe passes included, for join shapes).
	ScanTime time.Duration
	// MergeTime is the wall time of the final single-threaded merge of
	// per-worker partial states.
	MergeTime time.Duration

	// Partitioned reports that the radix-partitioned two-phase path ran
	// instead of direct per-worker hash tables: phase 1 scatters (key,
	// value) pairs into radix partition buffers, phase 2 aggregates each
	// partition in a cache-resident table.
	Partitioned bool
	// Partitions is the radix fan-out of the partitioned path (power of
	// two); 0 when Partitioned is false.
	Partitions int
	// PartitionTime is the wall time of phase 1, the partition-scatter
	// scan; included in ScanTime.
	PartitionTime time.Duration

	// StatsCached reports that the selectivity/group statistics above came
	// from the engine's statistics cache instead of a fresh sampling pass.
	StatsCached bool
	// PlanCached reports that the whole planning decision was replayed
	// from a prepared query (sampling AND cost-model evaluation skipped).
	PlanCached bool
	// HTGrows counts hash-table growth events that fired during the scan
	// phases; 0 means the cardinality-hinted preallocation was sufficient.
	HTGrows int
	// FreshAllocs counts execution resources (worker scratch sets, hash
	// tables, bitmaps) newly allocated for this execution rather than
	// recycled from the engine's pools; 0 in steady state.
	FreshAllocs int

	// Variants aggregates the kernel-variant selection counters across the
	// run's workers: which lane widths the compare/widen prepasses ran at,
	// how tile selection split across the density classes, how many tiles
	// went through dict-coded or masked forms, and how many elements the
	// software-prefetched probe/scatter loops covered. All zero for plans
	// compiled before the variant layer or for the tuple-at-a-time kernel.
	Variants vec.Counters
}

func (e Explain) String() string {
	part := ""
	if e.Partitioned {
		part = fmt.Sprintf(" partitioned=%d(p1=%s)", e.Partitions, e.PartitionTime)
	}
	variants := ""
	if e.Variants.Total() > 0 {
		variants = fmt.Sprintf(" variants=[%s]", e.Variants.String())
	}
	return fmt.Sprintf("technique=%s sel=%.3f comp=%.1f ht=%dB workers=%d%s scan=%s merge=%s stats_cached=%t plan_cached=%t ht_grows=%d fresh_allocs=%d costs=%v merged=%v%s",
		e.Technique, e.Selectivity, e.CompCost, e.HTBytes, e.Workers, part,
		e.ScanTime, e.MergeTime, e.StatsCached, e.PlanCached, e.HTGrows, e.FreshAllocs,
		e.Costs, e.Merged, variants)
}

// PartitionMode selects how the engine decides between direct and radix-
// partitioned group-by execution.
type PartitionMode int

// Partition modes.
const (
	// PartitionAuto lets the cost model choose (the default): partition
	// when the estimated hash-table footprint overflows the partition
	// budget and the two-phase model is cheaper than the direct one.
	PartitionAuto PartitionMode = iota
	// PartitionOff forces the direct path.
	PartitionOff
	// PartitionOn forces the partitioned path regardless of cost (tests,
	// experiments, benchmarks).
	PartitionOn
)

// String names the mode.
func (m PartitionMode) String() string {
	switch m {
	case PartitionOff:
		return "off"
	case PartitionOn:
		return "on"
	}
	return "auto"
}

// Engine executes queries over a database with a given cost model.
//
// The engine recycles execution state at plan granularity: each shape's
// one-shot entry point caches its compiled plans by query value and
// replays them (re-running an unchanged query samples nothing, plans
// nothing, and allocates nothing), the forced entry points recycle plan
// husks through bounded free lists, and sampled statistics are cached per
// (table version, expression) so even a fresh compile of a repeated shape
// skips the sampling pass. Engine methods are safe for concurrent use;
// executions serialize on the persistent worker gang's lock.
type Engine struct {
	DB     *storage.Database
	Params cost.Params

	// Workers is the number of morsel workers the executor dispatches
	// kernels on; 0 (the default) selects runtime.NumCPU(). Results are
	// identical at every worker count: each worker aggregates into
	// private partial state and the merges are exact int64 sums.
	Workers int
	// MorselRows overrides the executor's morsel length in rows; 0 keeps
	// exec.DefaultMorselRows. Exposed for tests and experiments.
	MorselRows int
	// Partition selects direct vs radix-partitioned group-by execution;
	// the zero value (PartitionAuto) defers to the cost model.
	Partition PartitionMode

	// The statistics cache (stats.go), the per-shape one-shot plan caches,
	// and the husk free lists (pools.go); mu guards them all.
	mu         sync.Mutex
	stats      statsCache
	planScalar map[ScalarAgg]*PreparedScalarAgg
	planGroup  map[GroupAgg]*PreparedGroupAgg
	planSemi   map[SemiJoinAgg]*PreparedSemiJoinAgg
	planGJoin  map[GroupJoinAgg]*PreparedGroupJoinAgg
	freeScalar []*PreparedScalarAgg
	freeGroup  []*PreparedGroupAgg
	freeSemi   []*PreparedSemiJoinAgg
	freeGJoin  []*PreparedGroupJoinAgg

	// The persistent worker gang every plan scans on; execMu serializes
	// executions on it. The scatter arena rides under the same lock: every
	// partitioned plan's workers append into this one pool, it is reserved
	// at bind and reset at the top of each radix run, and it must never
	// grow while a scan is appending.
	execMu     sync.Mutex
	gang       *exec.Workers
	gangN      int
	gangMorsel int
	scatter    *ht.ScatterPool
	// selPool is the per-worker scratch the generic Select pipeline
	// borrows for a run (selWorkersLocked), also under execMu.
	selPool []*selWorker
}

// NewEngine returns an engine with default cost parameters and one morsel
// worker per CPU.
func NewEngine(db *storage.Database) *Engine {
	return &Engine{DB: db, Params: cost.Default()}
}

// workers resolves the configured worker count.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

// workerState is the private scratch one morsel worker evaluates tiles
// with: an expression evaluator plus the tile buffers (exec.Scratch) the
// kernels in this package share. Workers never exchange scratch, so the
// tiled kernels run exactly as in the sequential engine. States are
// recycled across queries via the engine's pool (getStates/putStates).
type workerState struct {
	ev *expr.Evaluator
	// ctr is this worker's kernel-variant counters. The evaluator shares
	// the same struct (via SetCounters), so the compare/widen prepass
	// counts and the counts the kernels bump directly land in one place;
	// sumVariants folds them into Explain after each run. Heap-allocated so
	// the evaluator's pointer survives a reallocation of the states slice.
	ctr *vec.Counters
	// pf sinks the values returned by the software-prefetch Touch loops so
	// the loads stay live; per-worker, written once per tile.
	pf uint64
	*exec.Scratch
}

// newWorkerState allocates one worker's scratch set.
func newWorkerState() workerState {
	ctr := &vec.Counters{}
	ev := expr.NewEvaluator()
	ev.SetCounters(ctr)
	return workerState{ev: ev, ctr: ctr, Scratch: exec.NewScratch()}
}

// fillCmp evaluates the (possibly nil) filter for one tile into s.Cmp.
func (s *workerState) fillCmp(filter expr.Expr, base, length int) {
	if filter != nil {
		s.ev.EvalBool(filter, base, length, s.Cmp)
	} else {
		vec.Fill(s.Cmp[:length], 1)
	}
}

// Sentinel errors for query-shape failures. They are wrapped with %w so
// that callers — including ones draining errors surfaced from parallel
// workers — can test with errors.Is.
var (
	// ErrNoTable reports a query referencing an unknown table.
	ErrNoTable = errors.New("no such table")
	// ErrNoColumn reports a query referencing an unknown column.
	ErrNoColumn = errors.New("no such column")
)

func errNoTable(name string) error {
	return fmt.Errorf("core: table %q: %w", name, ErrNoTable)
}

func errNoColumn(table, column string) error {
	return fmt.Errorf("core: table %q column %q: %w", table, column, ErrNoColumn)
}

// sampleSelectivity estimates a predicate's selectivity on up to maxSample
// rows spread across the table. The filter must already be bound.
func sampleSelectivity(filter expr.Expr, rows, maxSample int) float64 {
	if filter == nil {
		return 1.0
	}
	if rows == 0 {
		return 0
	}
	step := 1
	if rows > maxSample {
		step = rows / maxSample
	}
	n, hits := 0, 0
	for i := 0; i < rows; i += step {
		n++
		if expr.Eval(filter, i) != 0 {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// sampleGroupKeys folds up to maxSample of the bound key expression's
// values into seen and returns how many rows it sampled. The append path
// reuses it to merge a delta's keys into an existing distinct-sample.
func sampleGroupKeys(key expr.Expr, rows, maxSample int, seen map[int64]struct{}) int {
	step := 1
	if rows > maxSample {
		step = rows / maxSample
	}
	n := 0
	for i := 0; i < rows; i += step {
		n++
		seen[expr.Eval(key, i)] = struct{}{}
	}
	return n
}

// estimateGroups turns a distinct-sample (d distinct keys in n sampled of
// rows total) into a group-count estimate; if the sample saturates, the
// estimate scales linearly.
func estimateGroups(d, n, rows int) int {
	if d > n*3/4 {
		return d * (rows / max(n, 1))
	}
	return d
}

// sampleGroups estimates the number of distinct keys of a bound column
// expression.
func sampleGroups(key expr.Expr, rows, maxSample int) int {
	if rows == 0 {
		return 1
	}
	seen := map[int64]struct{}{}
	n := sampleGroupKeys(key, rows, maxSample, seen)
	return estimateGroups(len(seen), n, rows)
}

// aggSlotBytes approximates ht.AggTable's per-group footprint.
func aggSlotBytes(nAccs int) int { return 8 + 1 + 8*nAccs + 8 + 1 }

// forcedPartitions is the minimum fan-out under PartitionOn, so forced
// runs exercise a real multi-partition shape even on tables the budget
// would leave unpartitioned.
const forcedPartitions = 16

// choosePartition resolves a partition mode against the cost model for a
// group-by of rows tuples into a table of htBytes. It returns whether to
// run the radix-partitioned path, the fan-out, and the modeled partitioned
// cost (meaningful whenever parts > 1, so callers can record it in
// Explain.Costs even when the direct path wins). The mode comes from the
// plan's environment snapshot, not the live engine, so a replay validity
// check and the decision it guards always agree.
func choosePartition(mode PartitionMode, params cost.Params, rows int, comp float64, htBytes int, directCost float64) (bool, int, float64) {
	switch mode {
	case PartitionOff:
		return false, 0, 0
	case PartitionOn:
		parts := params.PartitionsFor(htBytes)
		if parts < forcedPartitions {
			parts = forcedPartitions
		}
		return true, parts, params.PartitionedGroup(rows, comp, htBytes, parts)
	}
	use, parts, c := params.ChoosePartitionedGroup(rows, comp, htBytes, directCost)
	return use, parts, c
}
