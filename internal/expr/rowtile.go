package expr

import "github.com/reprolab/swole/internal/vec"

// Row-tile evaluation: BindRow-bound trees evaluated a tile at a time over
// gathered joined-row columns. The generic Select executor gathers every
// column a tree references once per tile — widened from the root table,
// positionally through a foreign-key index for a parent table, either
// for every lane (masking) or through a selection vector (compaction) —
// and then evaluates residual predicates and aggregate arguments here,
// one tight loop per operator instead of one tree walk per row (EvalRow).
//
// cols[i] holds joined-row field i's values for the tile's lanes; fields
// no tree references may be nil. Every operator evaluates on every lane,
// so no operator may trap: division by zero yields 0 (see quo).

// RowInt evaluates a BindRow-bound integer expression over n lanes and
// returns the vector holding the result: out[:n], or for a bare column
// reference the gathered column itself, which the caller must treat as
// read-only.
func (ev *Evaluator) RowInt(e Expr, cols [][]int64, n int, out []int64) []int64 {
	out = out[:n]
	switch x := e.(type) {
	case *Col:
		return cols[x.rowIdx][:n]
	case *Const:
		fillInt(out, x.Val)
	case *StrConst:
		fillInt(out, x.Code())
	case *Arith:
		ev.rowArith(x, cols, n, out)
	case *Case:
		ev.rowCase(x, cols, n, out)
	default:
		// Boolean nodes used as integers.
		b := ev.getBool()
		ev.RowBool(e, cols, n, b)
		for i := range out {
			out[i] = int64(b[i])
		}
		ev.putBool(b)
	}
	return out
}

func fillInt(out []int64, v int64) {
	for i := range out {
		out[i] = v
	}
}

// rowArith evaluates an arithmetic node into out. A literal operand stays
// a scalar in the loop instead of being broadcast into a vector.
func (ev *Evaluator) rowArith(x *Arith, cols [][]int64, n int, out []int64) {
	if c, ok := constVal(x.R); ok {
		l := ev.RowInt(x.L, cols, n, out)
		switch x.Op {
		case Add:
			for i := range out {
				out[i] = l[i] + c
			}
		case Sub:
			for i := range out {
				out[i] = l[i] - c
			}
		case Mul:
			for i := range out {
				out[i] = l[i] * c
			}
		default:
			if c == 0 {
				fillInt(out, 0)
				return
			}
			for i := range out {
				out[i] = l[i] / c
			}
		}
		return
	}
	if c, ok := constVal(x.L); ok && x.Op != Div {
		r := ev.RowInt(x.R, cols, n, out)
		switch x.Op {
		case Add:
			for i := range out {
				out[i] = c + r[i]
			}
		case Sub:
			for i := range out {
				out[i] = c - r[i]
			}
		default:
			for i := range out {
				out[i] = c * r[i]
			}
		}
		return
	}
	tmp := ev.getInt()
	l := ev.RowInt(x.L, cols, n, out)
	r := ev.RowInt(x.R, cols, n, tmp)
	switch x.Op {
	case Add:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case Sub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case Mul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	default:
		quoInto(l, r, out)
	}
	ev.putInt(tmp)
}

// rowCase evaluates every arm unconditionally and masks each with "its
// condition and no earlier condition", as EvalInt does.
func (ev *Evaluator) rowCase(x *Case, cols [][]int64, n int, out []int64) {
	fillInt(out, 0)
	taken := ev.getBool()[:n]
	for i := range taken {
		taken[i] = 0
	}
	cond := ev.getBool()[:n]
	buf := ev.getInt()
	for _, w := range x.Whens {
		ev.RowBool(w.Cond, cols, n, cond)
		if c, ok := constVal(w.Then); ok {
			for i := range out {
				out[i] += c * int64(cond[i]&^taken[i])
				taken[i] |= cond[i]
			}
			continue
		}
		v := ev.RowInt(w.Then, cols, n, buf)
		for i := range out {
			out[i] += v[i] * int64(cond[i]&^taken[i])
			taken[i] |= cond[i]
		}
	}
	if x.Else != nil {
		if c, ok := constVal(x.Else); ok {
			for i := range out {
				out[i] += c * int64(1-taken[i])
			}
		} else {
			v := ev.RowInt(x.Else, cols, n, buf)
			for i := range out {
				out[i] += v[i] * int64(1-taken[i])
			}
		}
	}
	ev.putInt(buf)
	ev.putBool(cond)
	ev.putBool(taken)
}

// RowBool evaluates a BindRow-bound predicate over n lanes, writing 0/1
// into out[:n].
func (ev *Evaluator) RowBool(e Expr, cols [][]int64, n int, out []byte) {
	out = out[:n]
	switch x := e.(type) {
	case *Cmp:
		tmp := ev.getInt()
		if c, ok := constVal(x.R); ok {
			vec.CmpConstU(vec.CmpOp(x.Op), ev.RowInt(x.L, cols, n, tmp), c, out)
		} else if c, ok := constVal(x.L); ok {
			vec.CmpConstU(flipCmp(vec.CmpOp(x.Op)), ev.RowInt(x.R, cols, n, tmp), c, out)
		} else {
			tmp2 := ev.getInt()
			vec.CmpCols(vec.CmpOp(x.Op), ev.RowInt(x.L, cols, n, tmp), ev.RowInt(x.R, cols, n, tmp2), out)
			ev.putInt(tmp2)
		}
		ev.putInt(tmp)
	case *Between:
		tmp := ev.getInt()
		v := ev.RowInt(x.X, cols, n, tmp)
		lo, okLo := constVal(x.Lo)
		hi, okHi := constVal(x.Hi)
		if okLo && okHi {
			vec.CmpConstBetweenU(v, lo, hi, out)
		} else {
			tlo, thi := ev.getInt(), ev.getInt()
			b := ev.getBool()[:n]
			vec.CmpCols(vec.GE, v, ev.RowInt(x.Lo, cols, n, tlo), out)
			vec.CmpCols(vec.LE, v, ev.RowInt(x.Hi, cols, n, thi), b)
			vec.And(out, b)
			ev.putBool(b)
			ev.putInt(tlo)
			ev.putInt(thi)
		}
		ev.putInt(tmp)
	case *In:
		tmp := ev.getInt()
		v := ev.RowInt(x.X, cols, n, tmp)
		if x.member != nil {
			for i := range out {
				out[i] = x.member[v[i]]
			}
		} else {
			for i := range out {
				out[i] = 0
			}
			b := ev.getBool()[:n]
			for _, item := range x.List {
				vec.CmpConstEQU(v, evalConst(item), b)
				vec.Or(out, b)
			}
			ev.putBool(b)
		}
		ev.putInt(tmp)
	case *Like:
		tmp := ev.getInt()
		v := ev.RowInt(x.X, cols, n, tmp)
		for i := range out {
			out[i] = x.match[v[i]]
		}
		ev.putInt(tmp)
	case *Logic:
		ev.RowBool(x.Args[0], cols, n, out)
		if x.Op == Not {
			vec.Not(out)
			return
		}
		b := ev.getBool()[:n]
		for _, a := range x.Args[1:] {
			ev.RowBool(a, cols, n, b)
			if x.Op == And {
				vec.And(out, b)
			} else {
				vec.Or(out, b)
			}
		}
		ev.putBool(b)
	default:
		// Integer expression used as a predicate: nonzero is true.
		tmp := ev.getInt()
		vec.CmpConstNEU(ev.RowInt(e, cols, n, tmp), 0, out)
		ev.putInt(tmp)
	}
}
