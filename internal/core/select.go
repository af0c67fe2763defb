package core

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
)

// This file compiles the generic executor behind the plan synthesizer:
// any single-block SELECT — a filtered root scan, up to maxSelectEdges FK
// join edges, multiple aggregates, GROUP BY, and HAVING — compiles into
// one PreparedSelect, which runs the per-tile pipeline of selectexec.go.
// Each join edge resolves build rows positionally through the registered
// foreign-key index and applies its build-side predicate as a positional
// bitmap (Section III-D), so no hash table is built. Root disjunctions
// choose, via the cost model, between fused branchless evaluation and
// term-at-a-time positional-bitmap OR-combination.

// maxSelectEdges bounds the join edges a synthesized plan may carry.
const maxSelectEdges = 4

// AggKind is an aggregate function of a synthesized plan.
type AggKind int

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling.
func (k AggKind) String() string {
	return [...]string{"sum", "count", "avg", "min", "max"}[k]
}

// SelectEdge is one FK join edge: the child's FK column maps each child row
// to a parent row through the registered foreign-key index. Src names the
// child side: -1 for the root table, otherwise the index of the earlier
// edge whose parent owns the FK column (snowflake chains).
type SelectEdge struct {
	Src    int
	FK     string
	Parent string
	PK     string
	Filter expr.Expr // optional parent-side predicate
}

// SelectAgg is one aggregate over the joined row.
type SelectAgg struct {
	Kind AggKind
	Arg  expr.Expr // nil for count(*)
	As   string
}

// SelectProj is one output column, evaluated over the aggregate output
// schema (group keys then aggregate aliases).
type SelectProj struct {
	Expr expr.Expr
	As   string
}

// Select is the specification of a synthesized single-block SELECT. Filter
// must be in negation normal form (expr.NNF) so the disjunction planner
// sees the top-level OR terms. All expression trees must be owned by the
// spec: Prepare binds them in place.
type Select struct {
	Root     string
	Filter   expr.Expr // root-table predicate
	Edges    []SelectEdge
	Residual expr.Expr // evaluated over the joined row
	GroupBy  []string
	Aggs     []SelectAgg
	Having   expr.Expr // evaluated over the aggregate output row
	Project  []SelectProj
}

// OutField describes one output (or intermediate) column of a synthesized
// plan.
type OutField struct {
	Name string
	Dict *storage.Dict
	Log  storage.Logical
}

// fieldSchema implements expr.SchemaSource over OutFields.
type fieldSchema []OutField

// Resolve implements expr.SchemaSource.
func (f fieldSchema) Resolve(name string) (int, *storage.Dict, bool) {
	for i, fd := range f {
		if fd.Name == name {
			return i, fd.Dict, true
		}
	}
	return 0, nil, false
}

func (f fieldSchema) index(name string) int {
	for i, fd := range f {
		if fd.Name == name {
			return i
		}
	}
	return -1
}

// SelectResult is a materialized synthesized-plan answer.
type SelectResult struct {
	Fields []OutField
	Rows   [][]int64
}

// boundEdge is a compiled join edge.
type boundEdge struct {
	src    int
	idx    *storage.FKIndex
	parent *storage.Table
	filter expr.Expr      // bound to parent
	bm     *bitmap.Bitmap // parent-side qualifying positions; nil without filter
}

// gatherField is one joined-schema column the row stage actually reads.
type gatherField struct {
	at  int // index in the joined row
	src int // -1 root, else edge index
	col *storage.Column
}

// keyField is one GROUP BY column's slice of the packed group key: the
// value minus the column's minimum, shifted into its own bit range.
type keyField struct {
	at    int // joined-row index
	lo    int64
	shift uint
	mask  int64 // (1 << bits) - 1
}

// maxPackedKeyBits bounds a packed group key. Keys stay non-negative and
// far from ht.NullKey; wider key sets take the hashed fallback.
const maxPackedKeyBits = 62

// accumulator is one per-group accumulator slot: a rule applied to one
// distinct aggregate argument. Aggregates sharing an argument and rule
// (sum(x) and avg(x)) share the slot; count reads the group's tuple count.
type accumulator struct {
	op  ht.AccOp
	arg int // index into PreparedSelect.args
}

// PreparedSelect is a compiled synthesized plan. Its scans run
// morsel-parallel on the engine's persistent worker gang, a tile at a
// time, with per-worker scratch borrowed from the engine's pool for the
// duration of a run (selectexec.go). The returned *SelectResult is owned
// by the plan and overwritten by its next run; RunContext is safe for
// concurrent use.
type PreparedSelect struct {
	e    *Engine
	spec Select
	nw   int // morsel workers

	root  *storage.Table
	edges []boundEdge

	strategy cost.DisjunctionStrategy
	terms    []expr.Expr // top-level OR terms of the bound root filter

	rowFields fieldSchema
	gather    []gatherField
	outFields fieldSchema
	resFields []OutField

	// Group keys: packed into one int64 when the columns' value ranges
	// fit maxPackedKeyBits, else hashed through per-worker dictionaries.
	keys   []keyField
	packed bool

	// Aggregates: the distinct argument trees, the accumulator slots fed
	// from them, and each output aggregate's slot (-1 for count).
	args    []expr.Expr
	accs    []accumulator
	accOps  []ht.AccOp
	sumAccs []int // the AccSum accumulators, folded lane by lane
	aggAcc  []int

	ex Explain

	selectRun
}

// PrepareSelect compiles a synthesized single-block SELECT into a reusable
// husk: it resolves tables and foreign-key indexes, binds every expression
// tree, samples term selectivities, and fixes the disjunction strategy via
// the cost model.
func (e *Engine) PrepareSelect(q Select) (*PreparedSelect, error) {
	if len(q.Edges) > maxSelectEdges {
		return nil, fmt.Errorf("core: %d join edges unsupported (max %d)", len(q.Edges), maxSelectEdges)
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("core: select without aggregates")
	}
	root := e.DB.Table(q.Root)
	if root == nil {
		return nil, errNoTable(q.Root)
	}
	p := &PreparedSelect{e: e, spec: q, root: root, nw: e.workers()}

	// Joined-row schema: root columns, then each edge's parent columns.
	addCols := func(t *storage.Table) {
		for _, c := range t.Columns {
			p.rowFields = append(p.rowFields, OutField{Name: c.Name, Dict: c.Dict, Log: c.Log})
		}
	}
	addCols(root)
	for i, ed := range q.Edges {
		childName := q.Root
		if ed.Src >= 0 {
			if ed.Src >= i {
				return nil, fmt.Errorf("core: edge %d references later edge %d", i, ed.Src)
			}
			childName = q.Edges[ed.Src].Parent
		}
		idx := e.DB.FK(childName, ed.FK, ed.Parent, ed.PK)
		if idx == nil {
			return nil, fmt.Errorf("core: no foreign key %s.%s -> %s.%s", childName, ed.FK, ed.Parent, ed.PK)
		}
		parent := e.DB.Table(ed.Parent)
		if parent == nil {
			return nil, errNoTable(ed.Parent)
		}
		be := boundEdge{src: ed.Src, idx: idx, parent: parent, filter: ed.Filter}
		if be.filter != nil {
			if err := expr.Bind(be.filter, parent); err != nil {
				return nil, err
			}
			be.bm = bitmap.New(parent.Rows())
		}
		p.edges = append(p.edges, be)
		addCols(parent)
	}

	// Root filter: bind, expose OR terms, choose the disjunction strategy.
	params := e.Params.ForWorkers(p.nw)
	// PlanCached is baked in like the other Prepared* types: every run of
	// this plan replays the prepare-time decision; the plan cache's first
	// execution resets it to false.
	p.ex = Explain{Technique: TechDataCentric, Workers: p.nw, PlanCached: true, Costs: map[string]float64{}}
	if len(p.edges) > 0 {
		p.ex.Technique = TechPositionalBitmap
	}
	for i, be := range p.edges {
		if be.bm != nil {
			p.ex.Costs[fmt.Sprintf("edge%d-bitmap-bytes", i)] = float64(be.bm.Bytes())
			p.ex.HTBytes += be.bm.Bytes()
		}
	}
	rows := root.Rows()
	if q.Filter != nil {
		if err := expr.Bind(q.Filter, root); err != nil {
			return nil, err
		}
		sel, cached := e.selectivity(q.Root, rows, q.Filter, 16384)
		p.ex.Selectivity, p.ex.StatsCached = sel, cached
		p.ex.CompCost = expr.CompCost(q.Filter, params)
		p.terms = expr.OrTerms(q.Filter)
		if len(p.terms) > 1 {
			termComp := make([]float64, len(p.terms))
			termSel := make([]float64, len(p.terms))
			for i, t := range p.terms {
				termComp[i] = expr.CompCost(t, params)
				termSel[i], _ = e.selectivity(q.Root, rows, t, 16384)
			}
			var fused, bm float64
			p.strategy, fused, bm = params.ChooseDisjunction(rows, termComp, termSel)
			p.ex.Costs["disjunction-fused"] = fused
			p.ex.Costs["disjunction-bitmap"] = bm
			if p.strategy == cost.DisjBitmap {
				p.rootBM = bitmap.New(rows)
			}
		}
	} else {
		p.ex.Selectivity = 1
	}

	// Row stage: bind residual, group keys, and aggregate arguments against
	// the joined schema, then plan the per-row gather of referenced columns.
	needed := map[string]bool{}
	noteCols := func(ex expr.Expr) {
		for _, c := range expr.Cols(ex) {
			needed[c] = true
		}
	}
	if q.Residual != nil {
		if err := expr.BindRow(q.Residual, p.rowFields); err != nil {
			return nil, err
		}
		noteCols(q.Residual)
	}
	for _, g := range q.GroupBy {
		needed[g] = true
	}
	for i := range q.Aggs {
		if q.Aggs[i].Arg != nil {
			if err := expr.BindRow(q.Aggs[i].Arg, p.rowFields); err != nil {
				return nil, err
			}
			noteCols(q.Aggs[i].Arg)
		}
	}
	for name := range needed {
		at := p.rowFields.index(name)
		if at < 0 {
			return nil, errNoColumn(q.Root, name)
		}
		src, col, err := p.colAt(at)
		if err != nil {
			return nil, err
		}
		p.gather = append(p.gather, gatherField{at: at, src: src, col: col})
	}
	sort.Slice(p.gather, func(i, j int) bool { return p.gather[i].at < p.gather[j].at })

	// Aggregate output schema: group keys (with their dictionaries), then
	// aggregate aliases.
	for _, g := range q.GroupBy {
		at := p.rowFields.index(g)
		if at < 0 {
			return nil, errNoColumn(q.Root, g)
		}
		p.keys = append(p.keys, keyField{at: at})
		p.outFields = append(p.outFields, p.rowFields[at])
	}
	p.planKeys()
	p.planAccs()
	for _, a := range q.Aggs {
		p.outFields = append(p.outFields, OutField{Name: a.As, Log: storage.LogInt})
	}
	if q.Having != nil {
		if err := expr.BindRow(q.Having, p.outFields); err != nil {
			return nil, err
		}
	}
	if len(q.Project) == 0 {
		return nil, fmt.Errorf("core: select without projection")
	}
	for i := range q.Project {
		if err := expr.BindRow(q.Project[i].Expr, p.outFields); err != nil {
			return nil, err
		}
		f := OutField{Name: q.Project[i].As, Log: storage.LogInt}
		if c, ok := q.Project[i].Expr.(*expr.Col); ok {
			if at := p.outFields.index(c.Name); at >= 0 {
				f.Dict, f.Log = p.outFields[at].Dict, p.outFields[at].Log
			}
		}
		p.resFields = append(p.resFields, f)
	}

	// Group-count estimate for Explain (first key only; joint cardinality
	// sampling would need the joined row).
	if len(q.GroupBy) > 0 && root.Column(q.GroupBy[0]) != nil {
		key := expr.NewCol(q.GroupBy[0])
		if err := expr.Bind(key, root); err == nil {
			g, _ := e.groupCount(q.Root, rows, key, 16384)
			p.ex.Groups = g
		}
	}

	p.bindKernels()
	return p, nil
}

// planKeys packs the GROUP BY columns into one int64, the first key in
// the most significant bits so the packed order is the lexicographic
// order of the key tuple. Each column contributes the bits of its value
// range: dictionary codes span the dictionary, other columns their
// min/max bounds. When the ranges need more than maxPackedKeyBits the
// plan falls back to hashed composite keys.
func (p *PreparedSelect) planKeys() {
	total := uint(0)
	for i := range p.keys {
		k := &p.keys[i]
		_, col, _ := p.colAt(k.at)
		lo, hi := col.Bounds()
		if col.Dict != nil {
			lo, hi = 0, int64(col.Dict.Len()-1)
		}
		width := uint(bits.Len64(uint64(hi - lo)))
		if hi < lo || width > maxPackedKeyBits {
			total = maxPackedKeyBits + 1
			break
		}
		k.lo, k.mask = lo, int64(1)<<width-1
		total += width
	}
	p.packed = total <= maxPackedKeyBits
	if !p.packed {
		return
	}
	shift := total
	for i := range p.keys {
		k := &p.keys[i]
		shift -= uint(bits.Len64(uint64(k.mask)))
		k.shift = shift
	}
}

// planAccs deduplicates the aggregate arguments (by their rendered text,
// which identifies trees bound against the same schema) and assigns each
// aggregate its accumulator slot.
func (p *PreparedSelect) planAccs() {
	argIdx := map[string]int{}
	accIdx := map[accumulator]int{}
	for _, a := range p.spec.Aggs {
		var op ht.AccOp
		switch a.Kind {
		case AggCount:
			p.aggAcc = append(p.aggAcc, -1)
			continue
		case AggMin:
			op = ht.AccMin
		case AggMax:
			op = ht.AccMax
		}
		key := a.Arg.String()
		ai, ok := argIdx[key]
		if !ok {
			ai = len(p.args)
			argIdx[key] = ai
			p.args = append(p.args, a.Arg)
		}
		acc := accumulator{op: op, arg: ai}
		ci, ok := accIdx[acc]
		if !ok {
			ci = len(p.accs)
			accIdx[acc] = ci
			p.accs = append(p.accs, acc)
			p.accOps = append(p.accOps, op)
			if op == ht.AccSum {
				p.sumAccs = append(p.sumAccs, ci)
			}
		}
		p.aggAcc = append(p.aggAcc, ci)
	}
}

// colAt recovers (source, column) from a joined-schema position.
func (p *PreparedSelect) colAt(fieldIdx int) (int, *storage.Column, error) {
	if fieldIdx < len(p.root.Columns) {
		return -1, p.root.Columns[fieldIdx], nil
	}
	off := len(p.root.Columns)
	for i, be := range p.edges {
		if fieldIdx < off+len(be.parent.Columns) {
			return i, be.parent.Columns[fieldIdx-off], nil
		}
		off += len(be.parent.Columns)
	}
	return 0, nil, fmt.Errorf("core: joined field %d out of range", fieldIdx)
}

// Explain returns the compile-time planning decision.
func (p *PreparedSelect) Explain() Explain { return p.ex }

// ResultFields returns the prepared plan's output header.
func (p *PreparedSelect) ResultFields() []OutField { return p.resFields }

// Strategy returns the chosen disjunction strategy (meaningful when the
// root filter is a disjunction).
func (p *PreparedSelect) Strategy() cost.DisjunctionStrategy { return p.strategy }
