package expr

import (
	"fmt"

	"github.com/reprolab/swole/internal/storage"
)

// Bind resolves every column reference in e against t, resolves string
// literals to dictionary codes, and precomputes LIKE lookup tables. It is
// idempotent. Expressions spanning multiple tables are split by the planner
// before binding; Bind rejects columns absent from t, and rejects string
// literals that no comparison context resolved (e.g. a bare string used as
// a boolean operand).
func Bind(e Expr, t *storage.Table) error {
	if err := bind(e, t); err != nil {
		return err
	}
	return checkResolved(e)
}

// checkResolved rejects string literals left unbound after binding.
func checkResolved(e Expr) error {
	var err error
	Walk(e, func(n Expr) {
		if sc, ok := n.(*StrConst); ok && !sc.bound && err == nil {
			err = fmt.Errorf("expr: string literal %s is not compared against a string column", sc)
		}
	})
	return err
}

func bind(e Expr, t *storage.Table) error {
	switch x := e.(type) {
	case *Col:
		col := t.Column(x.Name)
		if col == nil {
			return fmt.Errorf("expr: table %s has no column %s", t.Name, x.Name)
		}
		x.col = col
		return nil
	case *Const, *StrConst:
		return nil
	case *Arith:
		if err := bind(x.L, t); err != nil {
			return err
		}
		return bind(x.R, t)
	case *Cmp:
		if err := bind(x.L, t); err != nil {
			return err
		}
		if err := bind(x.R, t); err != nil {
			return err
		}
		return bindStrCmp(x)
	case *Between:
		for _, c := range []Expr{x.X, x.Lo, x.Hi} {
			if err := bind(c, t); err != nil {
				return err
			}
		}
		return nil
	case *In:
		if err := bind(x.X, t); err != nil {
			return err
		}
		col, _ := x.X.(*Col)
		for _, item := range x.List {
			if err := bind(item, t); err != nil {
				return err
			}
			if sc, ok := item.(*StrConst); ok {
				if col == nil || col.col.Dict == nil {
					return fmt.Errorf("expr: string literal %s in IN over non-string operand", sc)
				}
				resolveStrConst(sc, col.col.Dict)
			}
		}
		if col != nil {
			x.member = memberTable(x.List, col.col.Dict)
		}
		return nil
	case *Like:
		if err := bind(x.X, t); err != nil {
			return err
		}
		col, ok := x.X.(*Col)
		if !ok || col.col.Dict == nil {
			return fmt.Errorf("expr: LIKE requires a string column, got %s", x.X)
		}
		pat := x.Pattern
		x.match = col.col.Dict.MatchPred(func(s string) bool { return MatchLike(s, pat) })
		if x.Negate {
			for i := range x.match {
				x.match[i] ^= 1
			}
		}
		return nil
	case *Logic:
		for _, a := range x.Args {
			if err := bind(a, t); err != nil {
				return err
			}
		}
		return nil
	case *Case:
		for _, w := range x.Whens {
			if err := bind(w.Cond, t); err != nil {
				return err
			}
			if err := bind(w.Then, t); err != nil {
				return err
			}
		}
		if x.Else != nil {
			return bind(x.Else, t)
		}
		return nil
	}
	return fmt.Errorf("expr: cannot bind %T", e)
}

// bindStrCmp resolves a comparison of a string column against a string
// literal into a code comparison. Dictionary codes are order-preserving, so
// any operator works when the literal is present; an absent literal is
// resolved to a code that preserves EQ/NE semantics.
func bindStrCmp(c *Cmp) error {
	col, sc := asColStr(c.L, c.R)
	if sc == nil {
		return nil
	}
	if col == nil || col.col.Dict == nil {
		return fmt.Errorf("expr: string literal %s compared against non-string operand", sc)
	}
	resolveStrConst(sc, col.col.Dict)
	return nil
}

// memberTable turns IN over a dictionary column into a code-indexed 0/1
// table, the way Like.match does for patterns: every evaluator then tests
// membership with one indexed load per row instead of one comparison per
// list item. Literals absent from the dictionary (bound to code -1) and
// integer literals outside the code range never match and set nothing.
// It returns nil when d is nil or an item is not a literal.
func memberTable(list []Expr, d *storage.Dict) []byte {
	if d == nil {
		return nil
	}
	member := make([]byte, d.Len())
	for _, item := range list {
		c, ok := constVal(item)
		if !ok {
			return nil
		}
		if c >= 0 && c < int64(len(member)) {
			member[c] = 1
		}
	}
	return member
}

func asColStr(a, b Expr) (*Col, *StrConst) {
	if c, ok := a.(*Col); ok {
		if s, ok := b.(*StrConst); ok {
			return c, s
		}
	}
	if c, ok := b.(*Col); ok {
		if s, ok := a.(*StrConst); ok {
			return c, s
		}
	}
	return nil, nil
}

func resolveStrConst(sc *StrConst, d *storage.Dict) {
	if code, ok := d.Code(sc.Val); ok {
		sc.code = code
	} else {
		// Absent value: use a code below every real code so equality is
		// always false and inequality always true.
		sc.code = -1
	}
	sc.bound = true
}

// MatchLike reports whether s matches a SQL LIKE pattern, where % matches
// any run (including empty) and _ matches exactly one byte. Patterns and
// values in the paper's workloads are ASCII.
func MatchLike(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking to the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
