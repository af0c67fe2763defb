// Package expr provides the expression trees shared by the SQL frontend,
// the logical planner, the interpreted Volcano engine, and the code
// generator. Expressions evaluate over the column store in two modes:
// scalar (tuple at a time, the data-centric and Volcano access path) and
// tiled (vector at a time, the prepass access path).
//
// The package also provides the analyses SWOLE's planner needs:
// computation-cost introspection for the cost models (Section III-A cites
// introspection for estimating comp) and attribute-reference collection for
// access merging (Section III-C detects attributes referenced by both a
// predicate and an aggregation).
package expr

import (
	"fmt"
	"strings"

	"github.com/reprolab/swole/internal/cost"
	"github.com/reprolab/swole/internal/storage"
)

// Expr is a bound or unbound expression node. Integer semantics throughout:
// booleans are 0/1, decimals are fixed-point int64, strings are dictionary
// codes.
type Expr interface {
	// String renders SQL-ish text for plans, errors, and generated code.
	String() string
	// Children returns sub-expressions for generic traversal.
	Children() []Expr
}

// Col references a column, optionally qualified. Bind resolves it.
type Col struct {
	Table string // optional qualifier
	Name  string

	// bound state (column-store binding via Bind)
	col *storage.Column
	// bound state (row binding via BindRow)
	rowIdx   int
	rowDict  *storage.Dict
	rowBound bool
}

// NewCol returns an unbound column reference.
func NewCol(name string) *Col { return &Col{Name: name} }

// Column returns the bound storage column (nil before Bind).
func (c *Col) Column() *storage.Column { return c.col }

func (c *Col) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Children implements Expr.
func (c *Col) Children() []Expr { return nil }

// Const is an integer (or date, or fixed-point decimal) literal.
type Const struct {
	Val int64
	// Repr preserves the source spelling for generated code; optional.
	Repr string
}

func (c *Const) String() string {
	if c.Repr != "" {
		return c.Repr
	}
	return fmt.Sprintf("%d", c.Val)
}

// Children implements Expr.
func (c *Const) Children() []Expr { return nil }

// StrConst is a string literal; Bind resolves it to a dictionary code when
// compared against a string column.
type StrConst struct {
	Val string

	// bound state
	code  int64
	bound bool
}

// Code returns the bound dictionary code; evaluating an unbound StrConst
// panics, which flags a planner bug rather than silently mismatching.
func (c *StrConst) Code() int64 {
	if !c.bound {
		panic("expr: unbound string literal " + c.String())
	}
	return c.code
}

func (c *StrConst) String() string { return "'" + c.Val + "'" }

// Children implements Expr.
func (c *StrConst) Children() []Expr { return nil }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator's SQL spelling.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a *Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}

// Children implements Expr.
func (a *Arith) Children() []Expr { return []Expr{a.L, a.R} }

// CmpOp is a comparison operator (re-exported from vec for convenience).
type CmpOp int

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

// String returns the operator's SQL spelling.
func (op CmpOp) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "<>"}[op]
}

// Cmp is a comparison producing 0/1.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Children implements Expr.
func (c *Cmp) Children() []Expr { return []Expr{c.L, c.R} }

// Between is lo <= x AND x <= hi.
type Between struct {
	X, Lo, Hi Expr
}

func (b *Between) String() string {
	return b.X.String() + " between " + b.Lo.String() + " and " + b.Hi.String()
}

// Children implements Expr.
func (b *Between) Children() []Expr { return []Expr{b.X, b.Lo, b.Hi} }

// In tests membership of x in a literal list. When x binds to a string
// column, binding also builds a code-indexed membership table, so
// per-tuple evaluation is a single indexed load (as for Like).
type In struct {
	X    Expr
	List []Expr

	member []byte // bound over a dictionary column: dict-code -> 0/1
}

func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return in.X.String() + " in (" + strings.Join(parts, ", ") + ")"
}

// Children implements Expr.
func (in *In) Children() []Expr { return append([]Expr{in.X}, in.List...) }

// Like matches a string column against a SQL LIKE pattern with % and _
// wildcards. At bind time the pattern is evaluated once per distinct
// dictionary value into a code-indexed lookup table, so per-tuple
// evaluation is a single indexed load.
type Like struct {
	X       Expr // must bind to a string column
	Pattern string
	Negate  bool

	match []byte // bound: dict-code -> 0/1
}

func (l *Like) String() string {
	op := " like "
	if l.Negate {
		op = " not like "
	}
	return l.X.String() + op + "'" + l.Pattern + "'"
}

// Children implements Expr.
func (l *Like) Children() []Expr { return []Expr{l.X} }

// Logic is an n-ary AND/OR or unary NOT.
type Logic struct {
	Op   LogicOp
	Args []Expr
}

// LogicOp is a boolean connective.
type LogicOp int

// Boolean connectives.
const (
	And LogicOp = iota
	Or
	Not
)

func (l *Logic) String() string {
	switch l.Op {
	case Not:
		return "not (" + l.Args[0].String() + ")"
	default:
		word := " and "
		if l.Op == Or {
			word = " or "
		}
		parts := make([]string, len(l.Args))
		for i, a := range l.Args {
			parts[i] = "(" + a.String() + ")"
		}
		return strings.Join(parts, word)
	}
}

// Children implements Expr.
func (l *Logic) Children() []Expr { return l.Args }

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond, Then Expr
}

// Case is a searched CASE expression. SWOLE can evaluate all arms
// unconditionally and mask the non-qualifying results (Section III-A's
// CASE discussion); the interpreted evaluators use standard short-circuit
// semantics, and both produce identical values.
type Case struct {
	Whens []CaseWhen
	Else  Expr // nil means 0
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("case")
	for _, w := range c.Whens {
		sb.WriteString(" when " + w.Cond.String() + " then " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" else " + c.Else.String())
	}
	sb.WriteString(" end")
	return sb.String()
}

// Children implements Expr.
func (c *Case) Children() []Expr {
	var out []Expr
	for _, w := range c.Whens {
		out = append(out, w.Cond, w.Then)
	}
	if c.Else != nil {
		out = append(out, c.Else)
	}
	return out
}

// Walk visits e and all descendants in preorder.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// Cols returns the distinct column names referenced by e, in first-seen
// order. Access merging compares these sets between predicate and
// aggregation expressions.
func Cols(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok && !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c.Name)
		}
	})
	return out
}

// CompCost estimates the computation cost of evaluating e once, by
// introspection over its operators (the comp term of the cost models).
func CompCost(e Expr, p cost.Params) float64 {
	var total float64
	Walk(e, func(n Expr) {
		switch x := n.(type) {
		case *Arith:
			switch x.Op {
			case Add, Sub:
				total += p.CompAdd
			case Mul:
				total += p.CompMul
			case Div:
				total += p.CompDiv
			}
		case *Cmp, *Between, *Like:
			total += p.CompCmp
		case *In:
			total += p.CompCmp * float64(len(x.List))
		case *Case:
			total += p.CompCmp * float64(len(x.Whens))
		}
	})
	return total
}
