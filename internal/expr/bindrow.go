package expr

import (
	"fmt"

	"github.com/reprolab/swole/internal/storage"
)

// SchemaSource resolves column names to positions in a row of widened
// int64 values, plus the dictionary for string columns. The Volcano
// engine's intermediate tuples implement this.
type SchemaSource interface {
	Resolve(name string) (idx int, dict *storage.Dict, ok bool)
}

// BindRow resolves column references in e to row positions, string
// literals to dictionary codes, and LIKE patterns to code tables — the
// row-oriented counterpart of Bind.
func BindRow(e Expr, s SchemaSource) error {
	if err := bindRow(e, s); err != nil {
		return err
	}
	return checkResolved(e)
}

func bindRow(e Expr, s SchemaSource) error {
	switch x := e.(type) {
	case *Col:
		idx, dict, ok := s.Resolve(x.Name)
		if !ok {
			return fmt.Errorf("expr: no column %s in row schema", x.Name)
		}
		x.rowIdx = idx
		x.rowDict = dict
		x.rowBound = true
		return nil
	case *Const, *StrConst:
		return nil
	case *Arith:
		if err := bindRow(x.L, s); err != nil {
			return err
		}
		return bindRow(x.R, s)
	case *Cmp:
		if err := bindRow(x.L, s); err != nil {
			return err
		}
		if err := bindRow(x.R, s); err != nil {
			return err
		}
		return bindStrCmpRow(x)
	case *Between:
		for _, c := range []Expr{x.X, x.Lo, x.Hi} {
			if err := bindRow(c, s); err != nil {
				return err
			}
		}
		return nil
	case *In:
		if err := bindRow(x.X, s); err != nil {
			return err
		}
		col, _ := x.X.(*Col)
		for _, item := range x.List {
			if err := bindRow(item, s); err != nil {
				return err
			}
			if sc, ok := item.(*StrConst); ok {
				if col == nil || col.rowDict == nil {
					return fmt.Errorf("expr: string literal %s in IN over non-string operand", sc)
				}
				resolveStrConst(sc, col.rowDict)
			}
		}
		if col != nil {
			x.member = memberTable(x.List, col.rowDict)
		}
		return nil
	case *Like:
		if err := bindRow(x.X, s); err != nil {
			return err
		}
		col, ok := x.X.(*Col)
		if !ok || col.rowDict == nil {
			return fmt.Errorf("expr: LIKE requires a string column, got %s", x.X)
		}
		pat := x.Pattern
		x.match = col.rowDict.MatchPred(func(v string) bool { return MatchLike(v, pat) })
		if x.Negate {
			for i := range x.match {
				x.match[i] ^= 1
			}
		}
		return nil
	case *Logic:
		for _, a := range x.Args {
			if err := bindRow(a, s); err != nil {
				return err
			}
		}
		return nil
	case *Case:
		for _, w := range x.Whens {
			if err := bindRow(w.Cond, s); err != nil {
				return err
			}
			if err := bindRow(w.Then, s); err != nil {
				return err
			}
		}
		if x.Else != nil {
			return bindRow(x.Else, s)
		}
		return nil
	}
	return fmt.Errorf("expr: cannot bind %T", e)
}

func bindStrCmpRow(c *Cmp) error {
	col, sc := asColStr(c.L, c.R)
	if sc == nil {
		return nil
	}
	if col == nil || col.rowDict == nil {
		return fmt.Errorf("expr: string literal %s compared against non-string operand", sc)
	}
	resolveStrConst(sc, col.rowDict)
	return nil
}

// EvalRow evaluates a BindRow-bound expression against a widened row.
func EvalRow(e Expr, row []int64) int64 {
	switch x := e.(type) {
	case *Col:
		if !x.rowBound {
			panic("expr: column " + x.Name + " not row-bound")
		}
		return row[x.rowIdx]
	case *Const:
		return x.Val
	case *StrConst:
		return x.Code()
	case *Arith:
		l, r := EvalRow(x.L, row), EvalRow(x.R, row)
		switch x.Op {
		case Add:
			return l + r
		case Sub:
			return l - r
		case Mul:
			return l * r
		default:
			return quo(l, r)
		}
	case *Cmp:
		l, r := EvalRow(x.L, row), EvalRow(x.R, row)
		var ok bool
		switch x.Op {
		case LT:
			ok = l < r
		case LE:
			ok = l <= r
		case GT:
			ok = l > r
		case GE:
			ok = l >= r
		case EQ:
			ok = l == r
		default:
			ok = l != r
		}
		if ok {
			return 1
		}
		return 0
	case *Between:
		v := EvalRow(x.X, row)
		if v >= EvalRow(x.Lo, row) && v <= EvalRow(x.Hi, row) {
			return 1
		}
		return 0
	case *In:
		v := EvalRow(x.X, row)
		if x.member != nil {
			return int64(x.member[v])
		}
		for _, item := range x.List {
			if v == EvalRow(item, row) {
				return 1
			}
		}
		return 0
	case *Like:
		return int64(x.match[EvalRow(x.X, row)])
	case *Logic:
		switch x.Op {
		case And:
			for _, a := range x.Args {
				if EvalRow(a, row) == 0 {
					return 0
				}
			}
			return 1
		case Or:
			for _, a := range x.Args {
				if EvalRow(a, row) != 0 {
					return 1
				}
			}
			return 0
		default:
			if EvalRow(x.Args[0], row) == 0 {
				return 1
			}
			return 0
		}
	case *Case:
		for _, w := range x.Whens {
			if EvalRow(w.Cond, row) != 0 {
				return EvalRow(w.Then, row)
			}
		}
		if x.Else != nil {
			return EvalRow(x.Else, row)
		}
		return 0
	}
	panic("expr: cannot evaluate unknown node")
}
