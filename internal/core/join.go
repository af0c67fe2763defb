package core

import (
	"context"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// SemiJoinAgg is a filtered semijoin aggregation:
//
//	select sum(Agg) from Probe, Build
//	where Probe.FK = Build.PK and ProbeFilter and BuildFilter
//
// with no build attributes beyond the join — the shape of Section III-D,
// micro Q4, and TPC-H Q4. The build side's primary key must be the dense
// row id (true for every table in the workloads), which is what makes the
// foreign key double as the positional index.
type SemiJoinAgg struct {
	Probe       string
	Build       string
	FK          string // probe column holding build row positions
	PK          string // build primary key (dense)
	ProbeFilter expr.Expr
	BuildFilter expr.Expr
	Agg         expr.Expr // over probe columns
}

// PreparedSemiJoinAgg is the compiled plan for a semijoin aggregation:
// the build-side store variant (predicated vs selection-vector), both
// phase kernels, and the per-worker positional bitmaps.
type PreparedSemiJoinAgg struct {
	planCore
	probeRows   int
	buildRows   int
	probeFilter expr.Expr
	buildFilter expr.Expr
	agg         expr.Expr
	fkCol       *storage.Column
	parts       *exec.Partials
	partsN      int
	bms         []*bitmap.Bitmap
	buildKernel kernelFn
	probeKernel kernelFn

	// The build-store menu (Section III-D options 1 and 2); the probe side
	// has a single masked form.
	kBuildSel  kernelFn // selection-vector store, for very selective builds
	kBuildPred kernelFn // predicated store
	kProbe     kernelFn
}

// newSemiPlan builds an empty husk with its kernel menu.
func newSemiPlan() *PreparedSemiJoinAgg {
	p := &PreparedSemiJoinAgg{}
	p.kBuildSel = func(w, base, length int) {
		s, bm := &p.states[w], p.bms[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalBool(p.buildFilter, b, tl, s.Cmp)
			n, d := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(d)
			bm.SetFromSel(b, s.Idx, n)
		})
	}
	p.kBuildPred = func(w, base, length int) {
		s, bm := &p.states[w], p.bms[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.buildFilter, b, tl)
			bm.SetFromCmp(b, s.Cmp[:tl])
		})
	}
	p.kProbe = func(w, base, length int) {
		s, bm := &p.states[w], p.bms[0]
		var sum int64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.probeFilter, b, tl)
			s.ev.EvalInt(p.agg, b, tl, s.Vals)
			// The foreign keys widen once per tile at native lane width
			// instead of a per-element Kind switch.
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			for j := 0; j < tl; j++ {
				m := s.Cmp[j] & bm.TestBit(int(s.Keys[j]))
				sum += s.Vals[j] * int64(m)
			}
			s.ctr.MaskedAgg++
		})
		p.parts.Add(w, sum)
	}
	return p
}

// compileSemiJoinAgg plans a semijoin into p. The positional bitmap needs
// no cost decision ("Always Better" in Figure 2), only the choice between
// predicated and selection-vector construction, which the value-masking
// model makes.
func (e *Engine) compileSemiJoinAgg(p *PreparedSemiJoinAgg, q SemiJoinAgg, env planEnv) (*PreparedSemiJoinAgg, error) {
	probe := e.DB.Table(q.Probe)
	build := e.DB.Table(q.Build)
	if probe == nil {
		return nil, errNoTable(q.Probe)
	}
	if build == nil {
		return nil, errNoTable(q.Build)
	}
	fkCol := probe.Column(q.FK)
	if fkCol == nil {
		return nil, errNoColumn(q.Probe, q.FK)
	}
	if q.ProbeFilter != nil {
		if err := expr.Bind(q.ProbeFilter, probe); err != nil {
			return nil, err
		}
	}
	if q.BuildFilter != nil {
		if err := expr.Bind(q.BuildFilter, build); err != nil {
			return nil, err
		}
	}
	if err := expr.Bind(q.Agg, probe); err != nil {
		return nil, err
	}
	if p == nil {
		if p = popFree(e, &e.freeSemi); p == nil {
			p = newSemiPlan()
		}
	}
	fresh := p.bindCore(e, env, false)
	p.dep(q.Probe)
	p.dep(q.Build)
	p.probeRows, p.buildRows = probe.Rows(), build.Rows()
	p.probeFilter, p.buildFilter, p.agg = q.ProbeFilter, q.BuildFilter, q.Agg
	p.fkCol = fkCol
	var f int
	p.parts, p.partsN, f = ensurePartials(p.parts, p.partsN, p.nw)
	fresh += f
	p.bms, f = ensureBitmaps(p.bms, p.nw, p.buildRows)
	fresh += f

	buildSel, statsHit := e.selectivity(q.Build, p.buildRows, q.BuildFilter, 16384)
	p.ex = Explain{
		Technique:   TechPositionalBitmap,
		Selectivity: buildSel,
		HTBytes:     (p.buildRows + 7) / 8,
		Workers:     p.nw,
		StatsCached: statsHit,
		PlanCached:  true,
		FreshAllocs: fresh,
		Costs: map[string]float64{
			"bitmap-bytes": float64((p.buildRows + 7) / 8),
		},
	}
	if buildSel < 0.05 && q.BuildFilter != nil {
		p.buildKernel = p.kBuildSel
	} else {
		p.buildKernel = p.kBuildPred
	}
	p.probeKernel = p.kProbe
	return p, nil
}

// runLocked executes the bound plan. Callers hold e.execMu.
func (p *PreparedSemiJoinAgg) runLocked(ctx context.Context) (int64, Explain, error) {
	for _, bm := range p.bms {
		bm.Reset(p.buildRows)
	}
	p.parts.Reset()
	start := time.Now()
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return 0, Explain{}, p.canceled(err)
	}
	start = time.Now()
	// Morsels partition the build range, so each position was written by
	// exactly one worker; OR-merging is exact.
	p.bms[0].OrInto(p.bms[1:]...)
	p.ex.MergeTime = time.Since(start)
	start = time.Now()
	p.scan(ctx, p.probeRows, p.probeKernel)
	p.ex.ScanTime += time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return 0, Explain{}, p.canceled(err)
	}
	start = time.Now()
	sum := p.parts.Sum()
	p.sumVariants()
	p.ex.MergeTime += time.Since(start)
	return sum, p.snapshot(), nil
}

// Run executes the prepared semijoin. Allocation-free after the first
// call.
func (p *PreparedSemiJoinAgg) Run() (int64, Explain) {
	sum, ex, _ := p.RunContext(nil)
	return sum, ex
}

// RunContext executes the prepared semijoin under the context's deadline;
// see PreparedScalarAgg.RunContext for the cancellation contract.
func (p *PreparedSemiJoinAgg) RunContext(ctx context.Context) (int64, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	return p.runLocked(ctx)
}

// PrepareSemiJoinAgg compiles a semijoin aggregation once for the caller
// to keep and re-run.
func (e *Engine) PrepareSemiJoinAgg(q SemiJoinAgg) (*PreparedSemiJoinAgg, error) {
	return e.compileSemiJoinAgg(nil, q, e.planEnv())
}

// SemiJoinAgg executes the semijoin with SWOLE's positional bitmap
// (Section III-D: "Always Better" in Figure 2).
//
// Both passes are morsel-parallel. Build-side workers set bits in private
// positional bitmaps that are OR-merged into the first worker's bitmap
// once the scan finishes; probe-side workers then read the merged bitmap
// — immutable from here on — and accumulate masked partial sums. The
// compiled plan is cached by query value and replayed while tables and
// engine settings are unchanged.
func (e *Engine) SemiJoinAgg(q SemiJoinAgg) (int64, Explain, error) {
	return e.SemiJoinAggContext(nil, q)
}

// SemiJoinAggContext is SemiJoinAgg under a context deadline; see
// PreparedScalarAgg.RunContext for the cancellation contract.
func (e *Engine) SemiJoinAggContext(ctx context.Context, q SemiJoinAgg) (int64, Explain, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	env := e.planEnv()
	p := lookupPlan(e, e.planSemi, q)
	replay := p != nil && p.valid(env)
	if !replay {
		var err error
		if p, err = e.compileSemiJoinAgg(p, q, env); err != nil {
			dropPlan(e, e.planSemi, q)
			return 0, Explain{}, err
		}
		cachePlan(e, &e.planSemi, q, p)
	}
	sum, ex, err := p.runLocked(ctx)
	if err != nil {
		return 0, Explain{}, err
	}
	finishOneShot(&ex, replay)
	return sum, ex, nil
}

// GroupJoinAgg is a groupjoin keyed by the probe's foreign key:
//
//	select Probe.FK, sum(Agg) from Probe, Build
//	where Probe.FK = Build.PK and BuildFilter group by Probe.FK
//
// — the shape of Section III-E and micro Q5.
type GroupJoinAgg struct {
	Probe       string
	Build       string
	FK          string
	PK          string // dense primary key
	BuildFilter expr.Expr
	Agg         expr.Expr // over probe columns
}

// PreparedGroupJoinAgg is the compiled plan for a groupjoin: the eager-vs-
// traditional decision frozen, both phase kernels for the chosen path, and
// every table and bitmap the execution needs.
type PreparedGroupJoinAgg struct {
	planCore
	groupEmit
	probeRows   int
	buildRows   int
	buildFilter expr.Expr
	agg         expr.Expr
	fkCol       *storage.Column
	pkCol       *storage.Column
	eager       bool

	// Eager-aggregation path.
	tabs        []*ht.AggTable
	fails       []*bitmap.Bitmap
	probeKernel kernelFn
	buildKernel kernelFn

	// Traditional path.
	keyTabs   []*ht.AggTable
	keys      *ht.AggTable
	aggKernel kernelFn

	// Radix-partitioned eager variant (see partition.go): probeKernel
	// becomes the phase-1 (fk, value) scatter through the engine's shared
	// chunk arena and phase2 folds partitions, skipping keys the merged
	// fail bitmap disqualified. Emission buffers are per partition (not
	// per worker) so warm capacities are fixed by the data, independent of
	// which worker claims which partition.
	partitioned bool
	parts       int
	parters     []*ht.Partitioner
	smalls      []*ht.AggTable
	emit        [][]int64 // indexed by partition; filled by its claiming worker
	phase2      func(w, part int)

	// The kernel menu.
	kProbeEager kernelFn
	kBuildFail  kernelFn // inverted build predicate into fail bitmaps
	kScatter    kernelFn
	kBuildTrad  kernelFn
	kAgg        kernelFn
	kFold       func(w, part int)
}

// newGJoinPlan builds an empty husk with its kernel menu.
func newGJoinPlan() *PreparedGroupJoinAgg {
	p := &PreparedGroupJoinAgg{}
	p.kProbeEager = func(w, base, length int) {
		s, tab := &p.states[w], p.tabs[w]
		d := ht.PrefetchDist
		var sink uint64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalInt(p.agg, b, tl, s.Vals)
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			for j := 0; j < d && j < tl; j++ {
				sink += tab.Touch(s.Keys[j])
			}
			for j := 0; j < tl; j++ {
				if j+d < tl {
					sink += tab.Touch(s.Keys[j+d])
				}
				tab.Add(tab.Lookup(s.Keys[j]), 0, s.Vals[j])
			}
			s.ctr.PrefetchProbe += uint64(tl)
		})
		s.pf += sink
	}
	p.kBuildFail = func(w, base, length int) {
		// Inverted predicate marks non-qualifying groups — the parallel
		// analogue of the sequential path's hash table deletes, recorded
		// positionally in per-worker bitmaps.
		s, fail := &p.states[w], p.fails[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.buildFilter, b, tl)
			for j := 0; j < tl; j++ {
				fail.OrBit(int(p.pkCol.Get(b+j)), s.Cmp[j]^1)
			}
		})
	}
	p.kScatter = func(w, base, length int) {
		// Unconditional (fk, value) appends — the eager build aggregates
		// every probe tuple regardless of the join.
		s, pr := &p.states[w], p.parters[w]
		d := ht.PrefetchDist
		var sink uint64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalInt(p.agg, b, tl, s.Vals)
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			for j := 0; j < tl; j++ {
				if j+d < tl {
					sink += pr.TouchAppend(s.Keys[j+d])
				}
				pr.Append(s.Keys[j], s.Vals[j])
			}
			s.ctr.PrefetchScatter += uint64(tl)
		})
		s.pf += sink
	}
	p.kBuildTrad = func(w, base, length int) {
		s, tab := &p.states[w], p.keyTabs[w]
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.buildFilter, b, tl)
			n, d := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(d)
			for j := 0; j < n; j++ {
				tab.Lookup(p.pkCol.Get(b + int(s.Idx[j]))) // insert, not valid
			}
		})
	}
	p.kAgg = func(w, base, length int) {
		s, tab, keys := &p.states[w], p.tabs[w], p.keys
		d := ht.PrefetchDist
		var sink uint64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.ev.EvalInt(p.agg, b, tl, s.Vals)
			p.fkCol.WidenInto(b, tl, s.Keys)
			s.ctr.Widen[int(p.fkCol.Kind)]++
			for j := 0; j < tl; j++ {
				if j+d < tl {
					sink += tab.Touch(s.Keys[j+d])
				}
				if fk := s.Keys[j]; keys.Contains(fk) {
					tab.Add(tab.Lookup(fk), 0, s.Vals[j])
				}
			}
			s.ctr.PrefetchProbe += uint64(tl)
		})
		s.pf += sink
	}
	p.kFold = func(w, part int) {
		s, tab, fail := &p.states[w], p.smalls[w], p.fails[0]
		s.ctr.PrefetchProbe += uint64(foldPartition(tab, p.parters, part))
		tab.ForEach(false, func(key int64, slot int) {
			if key >= 0 && key < int64(fail.Len()) && fail.Test(int(key)) {
				return
			}
			p.emit[part] = append(p.emit[part], key, tab.Acc(slot, 0))
		})
	}
	return p
}

// compileGroupJoinAgg plans a groupjoin into p, freezing the eager-vs-
// traditional decision (Section III-E cost models) and — on the eager
// side, itself a group-by of the probe into |Build| groups — the radix
// partition decision.
func (e *Engine) compileGroupJoinAgg(p *PreparedGroupJoinAgg, q GroupJoinAgg, env planEnv) (*PreparedGroupJoinAgg, error) {
	probe := e.DB.Table(q.Probe)
	build := e.DB.Table(q.Build)
	if probe == nil {
		return nil, errNoTable(q.Probe)
	}
	if build == nil {
		return nil, errNoTable(q.Build)
	}
	fkCol := probe.Column(q.FK)
	if fkCol == nil {
		return nil, errNoColumn(q.Probe, q.FK)
	}
	pkCol := build.Column(q.PK)
	if pkCol == nil {
		return nil, errNoColumn(q.Build, q.PK)
	}
	if q.BuildFilter != nil {
		if err := expr.Bind(q.BuildFilter, build); err != nil {
			return nil, err
		}
	}
	if err := expr.Bind(q.Agg, probe); err != nil {
		return nil, err
	}
	if p == nil {
		if p = popFree(e, &e.freeGJoin); p == nil {
			p = newGJoinPlan()
		}
	}
	fresh := p.bindCore(e, env, false)
	p.dep(q.Probe)
	p.dep(q.Build)
	rows := probe.Rows()
	p.probeRows, p.buildRows = rows, build.Rows()
	p.buildFilter, p.agg = q.BuildFilter, q.Agg
	p.fkCol, p.pkCol = fkCol, pkCol

	params := env.params.ForWorkers(p.nw)
	selS, statsHit := e.selectivity(q.Build, p.buildRows, q.BuildFilter, 16384)
	comp := expr.CompCost(q.Agg, params)
	htBytes := p.buildRows * aggSlotBytes(1)
	eager, gj, ea := params.ChooseGroupjoin(p.buildRows, selS, rows, 1.0, selS, comp, htBytes)
	p.eager = eager
	p.partitioned = false
	p.ex = Explain{
		Selectivity: selS,
		CompCost:    comp,
		Groups:      p.buildRows,
		HTBytes:     htBytes,
		Workers:     p.nw,
		StatsCached: statsHit,
		PlanCached:  true,
		Costs:       map[string]float64{"groupjoin": gj, "eager-aggregation": ea},
	}

	var f int
	if eager {
		p.ex.Technique = TechEagerAggregation
		p.fails, f = ensureBitmaps(p.fails, p.nw, p.buildRows)
		fresh += f
		p.buildKernel = p.kBuildFail

		// The eager build is a group-by of the probe side into |Build|
		// groups; the radix decision applies to it.
		probeDirect := float64(rows) * params.BestAggPerTuple(rows, 1.0, comp, 1, htBytes)
		usePart, parts, partCost := choosePartition(env.partition, params, rows, comp, htBytes, probeDirect)
		if parts > 1 {
			p.ex.Costs["partitioned"] = partCost
		}
		if usePart {
			p.partitioned, p.parts = true, parts
			p.ex.Partitioned, p.ex.Partitions = true, parts
			pool, fp := e.ensureScatterLocked(rows, p.nw, parts)
			fresh += fp
			p.parters, f = ensurePartitioners(p.parters, p.nw, parts, pool)
			fresh += f
			p.smalls, f = ensureTables(p.smalls, p.nw, subTableHint(p.buildRows, parts))
			fresh += f
			p.emit = ensureEmit(p.emit, parts)
			p.probeKernel = p.kScatter
			p.phase2 = p.kFold
		} else {
			p.tabs, f = ensureTables(p.tabs, p.nw, p.buildRows)
			fresh += f
			p.probeKernel = p.kProbeEager
		}
	} else {
		p.ex.Technique = TechHybrid
		hint := int(selS*float64(p.buildRows)) + 1
		p.keyTabs, f = ensureTables(p.keyTabs, p.nw, hint)
		fresh += f
		p.keys, f = ensureTable(p.keys, hint)
		fresh += f
		p.tabs, f = ensureTables(p.tabs, p.nw, hint)
		fresh += f
		p.buildKernel = p.kBuildTrad
		p.aggKernel = p.kAgg
	}
	p.ex.FreshAllocs = fresh
	return p, nil
}

// runLocked executes the bound plan. Callers hold e.execMu.
func (p *PreparedGroupJoinAgg) runLocked(ctx context.Context) (*GroupResult, Explain, error) {
	var err error
	switch {
	case p.partitioned:
		err = p.runRadixEager(ctx)
	case p.eager:
		err = p.runEager(ctx)
	default:
		err = p.runTraditional(ctx)
	}
	if err != nil {
		return nil, Explain{}, p.canceled(err)
	}
	return &p.out, p.snapshot(), nil
}

// runRadixEager: fail bitmap first — phase-2 emission reads it — then one
// scanTwoPhase covering scatter, barrier, and partition-wise fold.
func (p *PreparedGroupJoinAgg) runRadixEager(ctx context.Context) error {
	for _, pr := range p.parters {
		pr.Reset()
	}
	p.e.scatter.Reset()
	for i := range p.emit {
		p.emit[i] = p.emit[i][:0]
	}
	for _, bm := range p.fails {
		bm.Reset(p.buildRows)
	}
	grows0 := growsSum(p.smalls)
	start := time.Now()
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return err
	}
	start = time.Now()
	p.fails[0].OrInto(p.fails[1:]...)
	p.ex.MergeTime = time.Since(start)

	start = time.Now()
	p.ex.PartitionTime = p.scanTwoPhase(ctx, p.probeRows, p.probeKernel, p.parts, p.phase2)
	p.ex.ScanTime += time.Since(start)
	p.ex.HTGrows = int(growsSum(p.smalls) - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	p.finishFrom(p.emit)
	p.sumVariants()
	p.ex.MergeTime += time.Since(start)
	return nil
}

// runEager aggregates the probe side unconditionally into per-worker
// tables while the inverted build predicate marks non-qualifying
// positions; the merge folds the tables, skipping marked keys.
func (p *PreparedGroupJoinAgg) runEager(ctx context.Context) error {
	for _, tab := range p.tabs {
		tab.Reset()
	}
	for _, bm := range p.fails {
		bm.Reset(p.buildRows)
	}
	grows0 := growsSum(p.tabs)
	start := time.Now()
	p.scan(ctx, p.probeRows, p.probeKernel)
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	p.ex.HTGrows = int(growsSum(p.tabs) - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	fail := p.fails[0]
	fail.OrInto(p.fails[1:]...)
	merged := p.tabs[0]
	for _, tab := range p.tabs[1:] {
		p.states[0].ctr.PrefetchProbe += merged.MergeFrom(tab)
	}
	p.reset()
	merged.ForEach(false, func(key int64, s int) {
		// Keys without a build row in [0, |Build|) mirror the sequential
		// path: nothing ever deletes them.
		if key >= 0 && key < int64(fail.Len()) && fail.Test(int(key)) {
			return
		}
		p.add(key, merged.Acc(s, 0))
	})
	p.finish()
	p.sumVariants()
	p.ex.MergeTime = time.Since(start)
	return nil
}

// runTraditional inserts qualifying build keys into per-worker key tables,
// merges them into one table probe workers consult read-only, and
// aggregates matches into per-worker tables merged at the end.
func (p *PreparedGroupJoinAgg) runTraditional(ctx context.Context) error {
	for _, tab := range p.keyTabs {
		tab.Reset()
	}
	p.keys.Reset()
	for _, tab := range p.tabs {
		tab.Reset()
	}
	grows0 := growsSum(p.keyTabs) + growsSum(p.tabs) + p.keys.Grows
	start := time.Now()
	p.scan(ctx, p.buildRows, p.buildKernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	for _, tab := range p.keyTabs {
		// Inserted-only groups carry no valid flag; visit them all.
		tab.ForEach(true, func(key int64, _ int) { p.keys.Lookup(key) })
	}
	p.ex.MergeTime = time.Since(start)

	start = time.Now()
	p.scan(ctx, p.probeRows, p.aggKernel)
	p.ex.ScanTime += time.Since(start)
	p.ex.HTGrows = int(growsSum(p.keyTabs) + growsSum(p.tabs) + p.keys.Grows - grows0)
	if err := ctxErr(ctx); err != nil {
		return err
	}

	start = time.Now()
	merged := p.tabs[0]
	for _, tab := range p.tabs[1:] {
		p.states[0].ctr.PrefetchProbe += merged.MergeFrom(tab)
	}
	p.reset()
	merged.ForEach(false, func(key int64, s int) {
		p.add(key, merged.Acc(s, 0))
	})
	p.finish()
	p.sumVariants()
	p.ex.MergeTime += time.Since(start)
	return nil
}

// Run executes the prepared groupjoin and returns the reused result.
func (p *PreparedGroupJoinAgg) Run() (*GroupResult, Explain) {
	res, ex, _ := p.RunContext(nil)
	return res, ex
}

// RunContext executes the prepared groupjoin under the context's deadline;
// see PreparedScalarAgg.RunContext for the cancellation contract.
func (p *PreparedGroupJoinAgg) RunContext(ctx context.Context) (*GroupResult, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	return p.runLocked(ctx)
}

// PrepareGroupJoinAgg compiles a groupjoin once for the caller to keep and
// re-run. It takes the execution lock: a partitioned compile may grow the
// shared scatter arena, which must not happen under a running scan.
func (e *Engine) PrepareGroupJoinAgg(q GroupJoinAgg) (*PreparedGroupJoinAgg, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return e.compileGroupJoinAgg(nil, q, e.planEnv())
}

// GroupJoinAgg chooses between the traditional groupjoin and eager
// aggregation using the Section III-E cost models evaluated with each
// worker's bandwidth share, and executes the winner morsel-parallel. The
// compiled plan is cached by query value and replayed while tables and
// engine settings are unchanged.
func (e *Engine) GroupJoinAgg(q GroupJoinAgg) (map[int64]int64, Explain, error) {
	return e.GroupJoinAggContext(nil, q)
}

// GroupJoinAggContext is GroupJoinAgg under a context deadline; see
// PreparedScalarAgg.RunContext for the cancellation contract.
func (e *Engine) GroupJoinAggContext(ctx context.Context, q GroupJoinAgg) (map[int64]int64, Explain, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	env := e.planEnv()
	p := lookupPlan(e, e.planGJoin, q)
	replay := p != nil && p.valid(env)
	if !replay {
		var err error
		if p, err = e.compileGroupJoinAgg(p, q, env); err != nil {
			dropPlan(e, e.planGJoin, q)
			return nil, Explain{}, err
		}
		cachePlan(e, &e.planGJoin, q, p)
	}
	res, ex, err := p.runLocked(ctx)
	if err != nil {
		return nil, Explain{}, err
	}
	finishOneShot(&ex, replay)
	return res.Map(), ex, nil
}
