package expr

import (
	"testing"

	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// tableSchema resolves row positions to a table's column order, the way
// the Select executor's joined-row schema does for a single table.
type tableSchema struct{ t *storage.Table }

func (s tableSchema) Resolve(name string) (int, *storage.Dict, bool) {
	for i, c := range s.t.Columns {
		if c.Name == name {
			return i, c.Dict, true
		}
	}
	return 0, nil, false
}

func rowTileCases() []Expr {
	col := NewCol
	c := func(v int64) Expr { return &Const{Val: v} }
	return []Expr{
		col("a"),
		c(7),
		&Arith{Op: Add, L: col("x"), R: col("a")},
		&Arith{Op: Sub, L: c(100), R: col("x")},
		&Arith{Op: Mul, L: col("a"), R: &Arith{Op: Sub, L: c(100), R: col("x")}},
		&Arith{Op: Div, L: col("a"), R: col("y")}, // y is 0 on a quarter of the rows
		&Arith{Op: Div, L: col("a"), R: c(0)},
		&Arith{Op: Div, L: c(1000), R: col("x")},
		&Arith{Op: Div, L: col("a"), R: c(7)},
		&Cmp{Op: LT, L: col("x"), R: col("a")},
		&Cmp{Op: GE, L: c(50), R: col("x")},
		&Cmp{Op: EQ, L: col("s"), R: &StrConst{Val: "PROMO PLATED"}},
		&Between{X: col("x"), Lo: c(10), Hi: c(60)},
		&Between{X: col("a"), Lo: col("y"), Hi: col("x")},
		&In{X: col("s"), List: []Expr{&StrConst{Val: "STANDARD TIN"}, &StrConst{Val: "NO SUCH"}}},
		&In{X: col("s"), List: []Expr{&StrConst{Val: "NO SUCH"}}},
		&In{X: col("x"), List: []Expr{c(3), c(50), c(99)}},
		NNF(&Logic{Op: Not, Args: []Expr{&In{X: col("s"), List: []Expr{&StrConst{Val: "PROMO BRUSHED"}, &StrConst{Val: "ECONOMY BURNISHED"}}}}}),
		&Like{X: col("s"), Pattern: "PROMO%"},
		&Logic{Op: Or, Args: []Expr{&Cmp{Op: LT, L: col("x"), R: c(10)}, &Cmp{Op: GT, L: col("a"), R: c(400)}}},
		&Logic{Op: And, Args: []Expr{&Cmp{Op: NE, L: col("y"), R: c(0)}, &Cmp{Op: GT, L: &Arith{Op: Div, L: col("a"), R: col("y")}, R: c(1)}}},
		&Case{Whens: []CaseWhen{
			{Cond: &Like{X: col("s"), Pattern: "PROMO%"}, Then: &Arith{Op: Mul, L: col("a"), R: c(3)}},
			{Cond: &Cmp{Op: EQ, L: col("y"), R: c(2)}, Then: c(-5)},
		}, Else: col("x")},
		&Case{Whens: []CaseWhen{{Cond: &Cmp{Op: GT, L: col("x"), R: c(50)}, Then: c(1)}}},
		&Arith{Op: Add, L: &Cmp{Op: LT, L: col("x"), R: c(20)}, R: col("y")},
	}
}

// TestRowTileMatchesEvalRow checks the row-tile evaluator against EvalRow
// on every row, over dense tiles (every lane gathered) and compacted ones
// (every third lane gathered through a selection vector), including
// lanes whose divisor is zero.
func TestRowTileMatchesEvalRow(t *testing.T) {
	tab := testTable(t)
	n := tab.Rows()
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, len(tab.Columns))
		for f, c := range tab.Columns {
			rows[i][f] = c.Get(i)
		}
	}
	ev := NewEvaluator()
	cols := make([][]int64, len(tab.Columns))
	for f := range cols {
		cols[f] = make([]int64, vec.TileSize)
	}
	outI := make([]int64, vec.TileSize)
	outB := make([]byte, vec.TileSize)
	sel := make([]int32, vec.TileSize)
	for _, e := range rowTileCases() {
		if err := BindRow(e, tableSchema{tab}); err != nil {
			t.Fatalf("BindRow(%s): %v", e, err)
		}
		for _, stride := range []int{1, 3} {
			vec.Tiles(n, func(base, length int) {
				m := 0
				for j := 0; j < length; j += stride {
					sel[m] = int32(j)
					m++
				}
				for f, c := range tab.Columns {
					c.GatherSelInto(base, sel[:m], cols[f])
				}
				got := ev.RowInt(e, cols, m, outI)
				ev.RowBool(e, cols, m, outB)
				for k := 0; k < m; k++ {
					r := rows[base+int(sel[k])]
					want := EvalRow(e, r)
					if got[k] != want {
						t.Fatalf("%s stride %d row %d: RowInt=%d EvalRow=%d", e, stride, base+int(sel[k]), got[k], want)
					}
					if b := int64(outB[k]); b != boolOf(want) {
						t.Fatalf("%s stride %d row %d: RowBool=%d want %d", e, stride, base+int(sel[k]), b, boolOf(want))
					}
				}
			})
		}
	}
}

func boolOf(v int64) int64 {
	if v != 0 {
		return 1
	}
	return 0
}

// TestDivisionByZeroNeverTraps pins the evaluators' shared convention:
// x / 0 is 0 on every path (scalar, tile, row, row tile), so a lane the
// predicate rejected cannot stop a scan.
func TestDivisionByZeroNeverTraps(t *testing.T) {
	tab := testTable(t)
	e := &Arith{Op: Div, L: NewCol("a"), R: NewCol("y")}
	vals := evalBothWays(t, tab, e, false)
	y, a := tab.MustColumn("y"), tab.MustColumn("a")
	zeros := 0
	for i, v := range vals {
		want := int64(0)
		if d := y.Get(i); d != 0 {
			want = a.Get(i) / d
		} else {
			zeros++
		}
		if v != want {
			t.Fatalf("row %d: got %d, want %d", i, v, want)
		}
	}
	if zeros == 0 {
		t.Fatal("fixture has no zero divisors")
	}
	guarded := &Logic{Op: And, Args: []Expr{
		&Cmp{Op: NE, L: NewCol("y"), R: &Const{Val: 0}},
		&Cmp{Op: GT, L: &Arith{Op: Div, L: NewCol("a"), R: NewCol("y")}, R: &Const{Val: 1}},
	}}
	evalBothWays(t, tab, guarded, true)
}

// TestInMembershipTable covers IN over a dictionary column bound to a
// code-indexed table: a literal absent from the dictionary matches
// nothing, and NOT IN survives NNF as a NOT wrapper over the table.
func TestInMembershipTable(t *testing.T) {
	tab := testTable(t)
	s := tab.MustColumn("s")
	in := &In{X: NewCol("s"), List: []Expr{&StrConst{Val: "PROMO PLATED"}, &StrConst{Val: "NOT IN DICT"}}}
	notIn := NNF(&Logic{Op: Not, Args: []Expr{&In{X: NewCol("s"), List: []Expr{&StrConst{Val: "PROMO PLATED"}, &StrConst{Val: "NOT IN DICT"}}}}})
	absent := &In{X: NewCol("s"), List: []Expr{&StrConst{Val: "NOT IN DICT"}}}
	got := evalBothWays(t, tab, in, true)
	gotNot := evalBothWays(t, tab, notIn, true)
	gotAbsent := evalBothWays(t, tab, absent, true)
	if in.member == nil || len(in.member) != s.Dict.Len() {
		t.Fatalf("IN over a dictionary column bound without a membership table")
	}
	for i := range got {
		want := int64(0)
		if s.GetString(i) == "PROMO PLATED" {
			want = 1
		}
		if got[i] != want || gotNot[i] != 1-want || gotAbsent[i] != 0 {
			t.Fatalf("row %d (%s): in=%d not-in=%d absent=%d", i, s.GetString(i), got[i], gotNot[i], gotAbsent[i])
		}
	}
	intIn := &In{X: NewCol("x"), List: []Expr{&Const{Val: 1}}}
	evalBothWays(t, tab, intIn, true)
	if intIn.member != nil {
		t.Error("IN over an integer column bound a membership table")
	}
}
