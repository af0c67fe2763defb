package core

import (
	"context"
	"time"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/exec"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// ScalarAgg is a filtered scalar sum: select sum(Agg) from Table where
// Filter — the shape of the paper's Section II example, micro Q1/Q3, and
// TPC-H Q6.
type ScalarAgg struct {
	Table  string
	Filter expr.Expr // nil selects everything
	Agg    expr.Expr // summed expression
}

// PreparedScalarAgg is the compiled plan for a scalar aggregation: the
// technique decision, the kernel for it, and every buffer the execution
// needs. See compile.go for the compile/bind/run contract.
type PreparedScalarAgg struct {
	planCore
	rows   int
	filter expr.Expr
	agg    expr.Expr
	parts  *exec.Partials
	partsN int
	kernel kernelFn

	// aggCol is the aggregate's storage column when the aggregate is a
	// bare column reference, bound at compile time so the masking kernel
	// can run the fused native-width masked sum (Column.SumMaskedRange)
	// instead of widening through the evaluator. Nil otherwise.
	aggCol *storage.Column

	// The technique menu, built once per husk over the fields above.
	kTuple  kernelFn // data-centric tuple-at-a-time (forced only)
	kHybrid kernelFn // pushdown through a selection vector
	kMask   kernelFn // value masking / access merging
}

// newScalarPlan builds an empty husk with its kernel menu. The closures
// read the husk's current fields, so rebinding the husk to another query
// or environment never rebuilds them.
func newScalarPlan() *PreparedScalarAgg {
	p := &PreparedScalarAgg{}
	p.kTuple = func(w, base, length int) {
		// Single tuple-at-a-time loop with a branch (Figure 1, left).
		var sum int64
		for i := base; i < base+length; i++ {
			if p.filter == nil || expr.Eval(p.filter, i) != 0 {
				sum += expr.Eval(p.agg, i)
			}
		}
		p.parts.Add(w, sum)
	}
	p.kHybrid = func(w, base, length int) {
		s := &p.states[w]
		var sum int64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			n, d := vec.SelFromCmpAdaptive(s.Cmp[:tl], s.Idx)
			s.ctr.CountSel(d)
			// Conditional access: the aggregate is evaluated only for
			// selected tuples.
			for j := 0; j < n; j++ {
				sum += expr.Eval(p.agg, b+int(s.Idx[j]))
			}
		})
		p.parts.Add(w, sum)
	}
	p.kMask = func(w, base, length int) {
		s := &p.states[w]
		var sum int64
		vec.Tiles(length, func(tb, tl int) {
			b := base + tb
			s.fillCmp(p.filter, b, tl)
			if p.aggCol != nil {
				// Fused masked sum at the column's native lane width: the
				// value pass reads 1-8 bytes per lane instead of widening
				// every lane to int64 first.
				sum += p.aggCol.SumMaskedRange(b, tl, s.Cmp[:tl])
			} else {
				s.ev.EvalInt(p.agg, b, tl, s.Vals)
				sum += vec.SumMaskedU(s.Vals[:tl], s.Cmp[:tl])
			}
			s.ctr.MaskedAgg++
		})
		p.parts.Add(w, sum)
	}
	return p
}

// compileScalarAgg plans a scalar aggregation into p (a recycled husk, or
// nil to draw one from the free list): it validates and binds the query,
// samples statistics through the cache, evaluates the Section III-A cost
// models, and binds the chosen kernel and resources. tech overrides the
// decision (forced execution); techAuto defers to the model.
func (e *Engine) compileScalarAgg(p *PreparedScalarAgg, q ScalarAgg, tech Technique, env planEnv) (*PreparedScalarAgg, error) {
	t := e.DB.Table(q.Table)
	if t == nil {
		return nil, errNoTable(q.Table)
	}
	if q.Filter != nil {
		if err := expr.Bind(q.Filter, t); err != nil {
			return nil, err
		}
	}
	if err := expr.Bind(q.Agg, t); err != nil {
		return nil, err
	}
	if p == nil {
		if p = popFree(e, &e.freeScalar); p == nil {
			p = newScalarPlan()
		}
	}
	fresh := p.bindCore(e, env, tech != techAuto)
	p.dep(q.Table)
	p.rows = t.Rows()
	p.filter, p.agg = q.Filter, q.Agg
	p.aggCol = nil
	if c, ok := q.Agg.(*expr.Col); ok {
		p.aggCol = c.Column()
	}
	var f int
	p.parts, p.partsN, f = ensurePartials(p.parts, p.partsN, p.nw)
	fresh += f

	params := env.params.ForWorkers(p.nw)
	sel, statsHit := e.selectivity(q.Table, p.rows, q.Filter, 16384)
	comp := expr.CompCost(q.Agg, params)
	p.ex = Explain{
		Selectivity: sel,
		CompCost:    comp,
		Workers:     p.nw,
		StatsCached: statsHit,
		PlanCached:  true,
		FreshAllocs: fresh,
		Costs: map[string]float64{
			"hybrid":        params.Hybrid(p.rows, sel, comp),
			"value-masking": params.ValueMasking(p.rows, comp),
		},
		Merged: shared(q.Filter, q.Agg),
	}
	if tech == techAuto {
		tech = TechHybrid
		if strat, _ := params.ChooseScalarAgg(p.rows, sel, comp); strat == cost.ChooseValueMasking {
			// A masking win with shared filter/aggregate attributes is
			// reported as access merging (Section III-C: "always beneficial
			// if it can be applied") — under the generic tiled evaluator the
			// shared attribute's second read hits the tile still resident
			// in cache.
			tech = TechValueMasking
			if len(p.ex.Merged) > 0 {
				tech = TechAccessMerging
			}
		}
	}
	p.ex.Technique = tech
	switch tech {
	case TechDataCentric:
		p.kernel = p.kTuple
	case TechValueMasking, TechAccessMerging:
		p.kernel = p.kMask
	default:
		p.kernel = p.kHybrid
	}
	return p, nil
}

// runLocked executes the bound plan. Callers hold e.execMu.
func (p *PreparedScalarAgg) runLocked(ctx context.Context) (int64, Explain, error) {
	p.parts.Reset()
	start := time.Now()
	p.scan(ctx, p.rows, p.kernel)
	p.ex.ScanTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return 0, Explain{}, p.canceled(err)
	}
	start = time.Now()
	sum := p.parts.Sum()
	p.sumVariants()
	p.ex.MergeTime = time.Since(start)
	return sum, p.snapshot(), nil
}

// Run executes the prepared aggregation. Allocation-free after the first
// call.
func (p *PreparedScalarAgg) Run() (int64, Explain) {
	sum, ex, _ := p.RunContext(nil)
	return sum, ex
}

// RunContext executes the prepared aggregation under the context's
// deadline: workers poll it at morsel granularity, so cancellation stops
// the scan within one morsel and returns ctx's error with the plan's
// pooled resources intact for the next run.
func (p *PreparedScalarAgg) RunContext(ctx context.Context) (int64, Explain, error) {
	p.e.execMu.Lock()
	defer p.e.execMu.Unlock()
	return p.runLocked(ctx)
}

// PrepareScalarAgg compiles a scalar aggregation once — statistics
// (through the cache), the cost-model decision, kernel and buffer binding
// — for the caller to keep and re-run.
func (e *Engine) PrepareScalarAgg(q ScalarAgg) (*PreparedScalarAgg, error) {
	return e.compileScalarAgg(nil, q, techAuto, e.planEnv())
}

// ScalarAgg plans and executes the aggregation, returning the sum and the
// decision record. The planner chooses between the hybrid pushdown and
// value masking using the Section III-A cost models evaluated with each
// worker's bandwidth share.
//
// Execution is morsel-parallel on the engine's persistent worker gang:
// workers claim cache-sized row ranges, run the chosen tiled kernel
// branch-free within each morsel, and accumulate into private partials;
// the merge phase sums the partials, so the result is identical at every
// worker count. The compiled plan is cached by query value: re-running
// the same query against unchanged tables and engine settings replays it
// without sampling, cost evaluation, or allocation.
func (e *Engine) ScalarAgg(q ScalarAgg) (int64, Explain, error) {
	return e.ScalarAggContext(nil, q)
}

// ScalarAggContext is ScalarAgg under a context deadline; see
// PreparedScalarAgg.RunContext for the cancellation contract.
func (e *Engine) ScalarAggContext(ctx context.Context, q ScalarAgg) (int64, Explain, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	env := e.planEnv()
	p := lookupPlan(e, e.planScalar, q)
	replay := p != nil && p.valid(env)
	if !replay {
		var err error
		if p, err = e.compileScalarAgg(p, q, techAuto, env); err != nil {
			dropPlan(e, e.planScalar, q)
			return 0, Explain{}, err
		}
		cachePlan(e, &e.planScalar, q, p)
	}
	sum, ex, err := p.runLocked(ctx)
	if err != nil {
		return 0, Explain{}, err
	}
	finishOneShot(&ex, replay)
	return sum, ex, nil
}

// shared returns attributes referenced by both expressions.
func shared(a, b expr.Expr) []string {
	if a == nil || b == nil {
		return nil
	}
	inA := map[string]bool{}
	for _, c := range expr.Cols(a) {
		inA[c] = true
	}
	var out []string
	for _, c := range expr.Cols(b) {
		if inA[c] {
			out = append(out, c)
		}
	}
	return out
}
