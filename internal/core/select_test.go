package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// selectDB builds the generic executor's fixture: a root table r with a
// row-index column (so filters on it qualify whole tiles), a column with
// zeros (division), a dictionary column, two wide-range columns (their
// packed key would exceed 62 bits), and a foreign key to s, which in turn
// references t (a snowflake chain).
func selectDB(t *testing.T, nR int) *storage.Database {
	t.Helper()
	rng := uint64(7)
	next := func(n int64) int64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int64((z ^ (z >> 31)) % uint64(n))
	}
	const nS, nT = 300, 40
	names := []string{"amber", "blue", "cyan", "dusk", "ember"}
	ri, rx, ra, rb, rc, rw, rv, rfk := make([]int64, nR), make([]int64, nR), make([]int64, nR), make([]int64, nR),
		make([]int64, nR), make([]int64, nR), make([]int64, nR), make([]int64, nR)
	rs := make([]string, nR)
	for i := 0; i < nR; i++ {
		ri[i] = int64(i)
		rx[i] = next(100)
		ra[i] = next(50) + 1
		rb[i] = next(9) - 4 // zero on a ninth of the rows
		rc[i] = next(50)
		rw[i] = (next(6) - 3) << 44
		rv[i] = (next(5) - 2) << 43
		rfk[i] = next(nS)
		rs[i] = names[next(int64(len(names)))]
	}
	spk, sx, sg, stk := make([]int64, nS), make([]int64, nS), make([]int64, nS), make([]int64, nS)
	for i := range spk {
		spk[i], sx[i], sg[i], stk[i] = int64(i), next(100), next(8), next(nT)
	}
	tpk, ty := make([]int64, nT), make([]int64, nT)
	tn := make([]string, nT)
	for i := range tpk {
		tpk[i], ty[i], tn[i] = int64(i), next(10), names[next(3)]
	}
	db := storage.NewDatabase()
	db.AddTable(storage.MustNewTable("r",
		storage.Compress("r_i", ri, storage.LogInt),
		storage.Compress("r_x", rx, storage.LogInt),
		storage.Compress("r_a", ra, storage.LogInt),
		storage.Compress("r_b", rb, storage.LogInt),
		storage.Compress("r_c", rc, storage.LogInt),
		storage.NewStrings("r_s", rs),
		storage.Compress("r_w", rw, storage.LogInt),
		storage.Compress("r_v", rv, storage.LogInt),
		storage.Compress("r_fk", rfk, storage.LogInt),
	))
	db.AddTable(storage.MustNewTable("s",
		storage.Compress("s_pk", spk, storage.LogInt),
		storage.Compress("s_x", sx, storage.LogInt),
		storage.Compress("s_g", sg, storage.LogInt),
		storage.Compress("s_tk", stk, storage.LogInt),
	))
	db.AddTable(storage.MustNewTable("t",
		storage.Compress("t_pk", tpk, storage.LogInt),
		storage.Compress("t_y", ty, storage.LogInt),
		storage.NewStrings("t_n", tn),
	))
	for _, fk := range [][4]string{{"r", "r_fk", "s", "s_pk"}, {"s", "s_tk", "t", "t_pk"}} {
		if err := db.AddFKIndex(fk[0], fk[1], fk[2], fk[3]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func ecol(name string) expr.Expr { return expr.NewCol(name) }
func econ(v int64) expr.Expr     { return &expr.Const{Val: v} }
func ecmp(op expr.CmpOp, l, r expr.Expr) expr.Expr {
	return &expr.Cmp{Op: op, L: l, R: r}
}
func earith(op expr.ArithOp, l, r expr.Expr) expr.Expr { return &expr.Arith{Op: op, L: l, R: r} }
func eor(args ...expr.Expr) expr.Expr                  { return &expr.Logic{Op: expr.Or, Args: args} }

// selectCase builds a fresh (unbound) spec: Prepare binds in place, so
// the reference and every engine need their own trees.
type selectCase struct {
	name string
	spec func() Select
}

// projectAll projects the group keys and then every aggregate alias.
func projectAll(keys []string, aggs []SelectAgg) []SelectProj {
	var out []SelectProj
	for _, k := range keys {
		out = append(out, SelectProj{Expr: ecol(k), As: k})
	}
	for _, a := range aggs {
		out = append(out, SelectProj{Expr: ecol(a.As), As: a.As})
	}
	return out
}

func grouped(root string, filter expr.Expr, edges []SelectEdge, residual expr.Expr, keys []string, having expr.Expr, aggs ...SelectAgg) Select {
	return Select{Root: root, Filter: expr.NNF(filter), Edges: edges, Residual: residual,
		GroupBy: keys, Aggs: aggs, Having: having, Project: projectAll(keys, aggs)}
}

func selectCases(nR int) []selectCase {
	fiveAggs := func() []SelectAgg {
		return []SelectAgg{
			{Kind: AggSum, Arg: ecol("r_a"), As: "sa"},
			{Kind: AggCount, As: "n"},
			{Kind: AggAvg, Arg: ecol("r_a"), As: "av"},
			{Kind: AggMin, Arg: ecol("r_b"), As: "mn"},
			{Kind: AggMax, Arg: earith(expr.Mul, ecol("r_b"), ecol("r_a")), As: "mx"},
		}
	}
	mixed := func() expr.Expr { // dense tiles in the first third, sparse after
		return eor(ecmp(expr.LT, ecol("r_i"), econ(int64(nR/3))), ecmp(expr.LT, ecol("r_x"), econ(3)))
	}
	joinEdges := func() []SelectEdge {
		return []SelectEdge{
			{Src: -1, FK: "r_fk", Parent: "s", PK: "s_pk", Filter: ecmp(expr.LT, ecol("s_x"), econ(70))},
			{Src: 0, FK: "s_tk", Parent: "t", PK: "t_pk", Filter: ecmp(expr.LT, ecol("t_y"), econ(8))},
		}
	}
	return []selectCase{
		{"packed/dense", func() Select {
			return grouped("r", ecmp(expr.LT, ecol("r_x"), econ(90)), nil, nil, []string{"r_s", "r_c"},
				ecmp(expr.GT, ecol("n"), econ(5)), fiveAggs()...)
		}},
		{"packed/compacted", func() Select {
			return grouped("r", ecmp(expr.LT, ecol("r_x"), econ(5)), nil, nil, []string{"r_s", "r_c"}, nil, fiveAggs()...)
		}},
		{"packed/mixed", func() Select {
			return grouped("r", mixed(), nil, nil, []string{"r_c", "r_s"}, nil, fiveAggs()...)
		}},
		{"packed/unfiltered", func() Select {
			return grouped("r", nil, nil, nil, []string{"r_s"}, nil, SelectAgg{Kind: AggCount, As: "n"})
		}},
		{"hashed/dense", func() Select {
			return grouped("r", ecmp(expr.LT, ecol("r_x"), econ(60)), nil, nil, []string{"r_w", "r_v"},
				ecmp(expr.GE, ecol("sa"), econ(100)), fiveAggs()...)
		}},
		{"hashed/mixed", func() Select {
			return grouped("r", mixed(), nil, nil, []string{"r_w", "r_s", "r_v"}, nil, fiveAggs()...)
		}},
		{"join/grouped", func() Select {
			return grouped("r", ecmp(expr.LT, ecol("r_x"), econ(80)), joinEdges(),
				ecmp(expr.GT, earith(expr.Add, ecol("r_a"), ecol("s_x")), econ(40)),
				[]string{"s_g", "t_n"}, nil,
				SelectAgg{Kind: AggSum, Arg: earith(expr.Mul, ecol("r_a"), ecol("t_y")), As: "sy"},
				SelectAgg{Kind: AggAvg, Arg: ecol("s_x"), As: "ax"},
				SelectAgg{Kind: AggMax, Arg: ecol("t_y"), As: "my"},
				SelectAgg{Kind: AggCount, As: "n"})
		}},
		{"join/scalar-sparse", func() Select {
			return grouped("r", ecmp(expr.LT, ecol("r_x"), econ(4)), joinEdges(), nil, nil, nil,
				SelectAgg{Kind: AggSum, Arg: ecol("r_a"), As: "sa"},
				SelectAgg{Kind: AggMin, Arg: ecol("s_x"), As: "mn"},
				SelectAgg{Kind: AggCount, As: "n"})
		}},
		{"scalar/zero-rows", func() Select {
			return grouped("r", ecmp(expr.LT, ecol("r_x"), econ(0)), nil, nil, nil, nil, fiveAggs()...)
		}},
		{"scalar/dense-div", func() Select {
			return grouped("r", ecmp(expr.NE, ecol("r_b"), econ(0)), nil, nil, nil, nil,
				SelectAgg{Kind: AggSum, Arg: earith(expr.Div, earith(expr.Mul, ecol("r_a"), econ(100)), ecol("r_b")), As: "q"},
				SelectAgg{Kind: AggMin, Arg: earith(expr.Div, ecol("r_a"), ecol("r_b")), As: "mq"},
				SelectAgg{Kind: AggCount, As: "n"})
		}},
		{"grouped/div", func() Select {
			return grouped("r", ecmp(expr.NE, ecol("r_b"), econ(0)), nil, nil, []string{"r_c"}, nil,
				SelectAgg{Kind: AggSum, Arg: earith(expr.Div, ecol("r_a"), ecol("r_b")), As: "q"},
				SelectAgg{Kind: AggCount, As: "n"})
		}},
		{"projection", func() Select {
			s := grouped("r", ecmp(expr.GE, ecol("r_x"), econ(50)), nil, nil, []string{"r_s"}, nil,
				SelectAgg{Kind: AggSum, Arg: ecol("r_a"), As: "sa"}, SelectAgg{Kind: AggCount, As: "n"})
			s.Project = []SelectProj{{Expr: earith(expr.Div, ecol("sa"), ecol("n")), As: "mean"}, {Expr: ecol("r_s"), As: "r_s"}}
			return s
		}},
	}
}

// refSelect answers a spec row at a time over the fully joined row — the
// executor's semantics with none of its machinery. Rows come back in
// group-key order.
func refSelect(t *testing.T, db *storage.Database, q Select) [][]int64 {
	t.Helper()
	root := db.MustTable(q.Root)
	tabs := []*storage.Table{root}
	var fields fieldSchema
	for _, c := range root.Columns {
		fields = append(fields, OutField{Name: c.Name, Dict: c.Dict})
	}
	for _, ed := range q.Edges {
		p := db.MustTable(ed.Parent)
		tabs = append(tabs, p)
		for _, c := range p.Columns {
			fields = append(fields, OutField{Name: c.Name, Dict: c.Dict})
		}
	}
	bind := func(e expr.Expr, s expr.SchemaSource) {
		if e != nil {
			if err := expr.BindRow(e, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	bind(q.Filter, fields)
	bind(q.Residual, fields)
	for _, ed := range q.Edges {
		bind(ed.Filter, fields)
	}
	for _, a := range q.Aggs {
		bind(a.Arg, fields)
	}
	var out fieldSchema
	for _, g := range q.GroupBy {
		out = append(out, fields[fields.index(g)])
	}
	for _, a := range q.Aggs {
		out = append(out, OutField{Name: a.As})
	}
	bind(q.Having, out)
	for _, p := range q.Project {
		bind(p.Expr, out)
	}

	type group struct {
		keys        []int64
		sum, mn, mx []int64
		cnt         int64
	}
	groups := map[string]*group{}
	row := make([]int64, len(fields))
	prow := make([]int, len(tabs))
	for r := 0; r < root.Rows(); r++ {
		prow[0] = r
		off := 0
		for ti, tb := range tabs {
			if ti > 0 {
				ed := q.Edges[ti-1]
				child := q.Root
				if ed.Src >= 0 {
					child = q.Edges[ed.Src].Parent
				}
				prow[ti] = int(db.MustFK(child, ed.FK, ed.Parent, ed.PK).Pos[prow[ed.Src+1]])
			}
			for ci, c := range tb.Columns {
				row[off+ci] = c.Get(prow[ti])
			}
			off += len(tb.Columns)
		}
		pass := q.Filter == nil || expr.EvalRow(q.Filter, row) != 0
		for _, ed := range q.Edges {
			pass = pass && (ed.Filter == nil || expr.EvalRow(ed.Filter, row) != 0)
		}
		pass = pass && (q.Residual == nil || expr.EvalRow(q.Residual, row) != 0)
		if !pass {
			continue
		}
		var keys []int64
		for _, g := range q.GroupBy {
			keys = append(keys, row[fields.index(g)])
		}
		k := fmt.Sprint(keys)
		g := groups[k]
		if g == nil {
			g = &group{keys: keys, sum: make([]int64, len(q.Aggs)), mn: make([]int64, len(q.Aggs)), mx: make([]int64, len(q.Aggs))}
			groups[k] = g
		}
		for i, a := range q.Aggs {
			v := int64(0)
			if a.Arg != nil {
				v = expr.EvalRow(a.Arg, row)
			}
			g.sum[i] += v
			if g.cnt == 0 || v < g.mn[i] {
				g.mn[i] = v
			}
			if g.cnt == 0 || v > g.mx[i] {
				g.mx[i] = v
			}
		}
		g.cnt++
	}
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{sum: make([]int64, len(q.Aggs)), mn: make([]int64, len(q.Aggs)), mx: make([]int64, len(q.Aggs))}
	}
	var gs []*group
	for _, g := range groups {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(a, b *group) int { return slices.Compare(a.keys, b.keys) })
	var res [][]int64
	for _, g := range gs {
		orow := append([]int64(nil), g.keys...)
		for i, a := range q.Aggs {
			v := g.sum[i]
			switch a.Kind {
			case AggCount:
				v = g.cnt
			case AggAvg:
				v = 0
				if g.cnt > 0 {
					v = g.sum[i] * storage.DecimalOne / g.cnt
				}
			case AggMin:
				v = g.mn[i]
			case AggMax:
				v = g.mx[i]
			}
			orow = append(orow, v)
		}
		if q.Having != nil && expr.EvalRow(q.Having, orow) == 0 {
			continue
		}
		var final []int64
		for _, p := range q.Project {
			final = append(final, expr.EvalRow(p.Expr, orow))
		}
		res = append(res, final)
	}
	return res
}

func sameRows(got, want [][]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if slices.Compare(got[i], want[i]) != 0 {
			return fmt.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestPreparedSelectDifferential runs every case through PrepareSelect at
// 1, 2 and 4 workers with small morsels, twice each (the warm run replays
// on pooled worker state), against the row-at-a-time reference. The cases
// cover packed and hashed-fallback group keys, dense, compacted and mixed
// tiles, join edges with bitmaps and a snowflake chain, a residual,
// sum/count/avg/min/max, HAVING, projection arithmetic, a scalar
// aggregate over zero rows, and divisions whose divisor is zero only on
// rejected rows.
func TestPreparedSelectDifferential(t *testing.T) {
	const nR = 60_000
	db := selectDB(t, nR)
	for _, c := range selectCases(nR) {
		want := refSelect(t, db, c.spec())
		for _, workers := range []int{1, 2, 4} {
			e := NewEngine(db)
			e.Workers = workers
			e.MorselRows = 2048
			p, err := e.PrepareSelect(c.spec())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for run := 0; run < 2; run++ {
				res, ex, err := p.RunContext(context.Background())
				if err != nil {
					t.Fatalf("%s workers=%d: %v", c.name, workers, err)
				}
				if err := sameRows(res.Rows, want); err != nil {
					t.Errorf("%s workers=%d run=%d: %v", c.name, workers, run, err)
				}
				if ex.Workers != workers {
					t.Errorf("%s: Explain.Workers=%d, want %d", c.name, ex.Workers, workers)
				}
			}
			e.Close()
		}
	}
}

// TestPreparedSelectKeyPacking pins which key sets pack into one int64
// and which fall back to hashed composite keys.
func TestPreparedSelectKeyPacking(t *testing.T) {
	db := selectDB(t, 4096)
	e := NewEngine(db)
	defer e.Close()
	for _, c := range []struct {
		keys   []string
		packed bool
	}{
		{[]string{"r_s", "r_c"}, true},
		{[]string{"r_w"}, true},
		{[]string{"r_w", "r_v"}, false},
		{[]string{"r_i", "r_w"}, true},
	} {
		p, err := e.PrepareSelect(grouped("r", nil, nil, nil, c.keys, nil, SelectAgg{Kind: AggCount, As: "n"}))
		if err != nil {
			t.Fatal(err)
		}
		if p.packed != c.packed {
			t.Errorf("keys %v: packed=%t, want %t", c.keys, p.packed, c.packed)
		}
	}
}

// countdownCtx is never done by its channel, but reports Canceled once
// its Err has been polled budget times — a cancellation that lands in the
// middle of a scan, at a morsel boundary, deterministically.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
	done   chan struct{}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }
func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPreparedSelectCancelMidScan cancels runs partway through each scan
// phase and checks the plan's next run is still exact.
func TestPreparedSelectCancelMidScan(t *testing.T) {
	const nR = 60_000
	db := selectDB(t, nR)
	cases := selectCases(nR)
	for _, name := range []string{"join/grouped", "hashed/mixed", "scalar/dense-div"} {
		i := slices.IndexFunc(cases, func(c selectCase) bool { return c.name == name })
		want := refSelect(t, db, cases[i].spec())
		for _, workers := range []int{1, 4} {
			e := NewEngine(db)
			e.Workers = workers
			e.MorselRows = 2048
			p, err := e.PrepareSelect(cases[i].spec())
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{1, 3, 8, 15, 22} {
				ctx := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
				ctx.budget.Store(budget)
				if _, _, err := p.RunContext(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s workers=%d budget=%d: err=%v, want Canceled", name, workers, budget, err)
				}
				res, _, err := p.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if err := sameRows(res.Rows, want); err != nil {
					t.Errorf("%s workers=%d after a cancel at %d: %v", name, workers, budget, err)
				}
			}
			e.Close()
		}
	}
}

// TestPreparedSelectWarmZeroAlloc pins that a warm replay of a packed-key
// grouped plan allocates nothing: no per-row, per-group or per-run
// garbage once the pooled worker state and the result buffers are sized.
func TestPreparedSelectWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const nR = 64_000
	db := selectDB(t, nR)
	for _, workers := range []int{1, 4} {
		e := NewEngine(db)
		e.Workers = workers
		e.MorselRows = 4096
		for _, name := range []string{"packed/dense", "packed/mixed", "join/grouped", "scalar/dense-div"} {
			cases := selectCases(nR)
			i := slices.IndexFunc(cases, func(c selectCase) bool { return c.name == name })
			p, err := e.PrepareSelect(cases[i].spec())
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, _, err := p.RunContext(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			run()
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("workers=%d %s: warm run allocates %.1f per run, want 0", workers, name, allocs)
			}
		}
		e.Close()
	}
}

// TestPreparedSelectFreshAllocs checks the worker pool's accounting: the
// first run on an engine creates its select workers and tables, and later
// runs of any plan borrow them.
func TestPreparedSelectFreshAllocs(t *testing.T) {
	const nR = 20_000
	db := selectDB(t, nR)
	e := NewEngine(db)
	e.Workers = 2
	defer e.Close()
	cases := selectCases(nR)
	var fresh []int
	for _, c := range cases[:3] {
		p, err := e.PrepareSelect(c.spec())
		if err != nil {
			t.Fatal(err)
		}
		_, ex, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, ex.FreshAllocs)
	}
	if fresh[0] == 0 || fresh[1]+fresh[2] != 0 {
		t.Errorf("FreshAllocs per first run = %v, want >0 then 0", fresh)
	}
}
