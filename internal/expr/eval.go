package expr

import (
	"github.com/reprolab/swole/internal/vec"
)

// Eval evaluates a bound expression for a single row, the tuple-at-a-time
// access path of the Volcano engine and the data-centric kernels. Booleans
// are 0/1.
func Eval(e Expr, row int) int64 {
	switch x := e.(type) {
	case *Col:
		return x.col.Get(row)
	case *Const:
		return x.Val
	case *StrConst:
		return x.Code()
	case *Arith:
		l, r := Eval(x.L, row), Eval(x.R, row)
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
		l, r := Eval(x.L, row), Eval(x.R, row)
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
		v := Eval(x.X, row)
		if v >= Eval(x.Lo, row) && v <= Eval(x.Hi, row) {
			return 1
		}
		return 0
	case *In:
		v := Eval(x.X, row)
		if x.member != nil {
			return int64(x.member[v])
		}
		for _, item := range x.List {
			if v == Eval(item, row) {
				return 1
			}
		}
		return 0
	case *Like:
		return int64(x.match[Eval(x.X, row)])
	case *Logic:
		switch x.Op {
		case And:
			for _, a := range x.Args {
				if Eval(a, row) == 0 {
					return 0
				}
			}
			return 1
		case Or:
			for _, a := range x.Args {
				if Eval(a, row) != 0 {
					return 1
				}
			}
			return 0
		default:
			if Eval(x.Args[0], row) == 0 {
				return 1
			}
			return 0
		}
	case *Case:
		for _, w := range x.Whens {
			if Eval(w.Cond, row) != 0 {
				return Eval(w.Then, row)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, row)
		}
		return 0
	}
	panic("expr: cannot evaluate unknown node")
}

// Evaluator evaluates bound expressions a tile at a time, reusing scratch
// buffers across calls. It backs the generic hybrid/prepass execution paths
// and the vectorized parts of the Volcano engine.
type Evaluator struct {
	intScratch  [][]int64
	boolScratch [][]byte

	// ctr, when set, tallies which specialized kernel variant each tile
	// ran through (width-specialized cmp prepass, unrolled widen, dict
	// keys). Plans bind a per-worker counter block at bind() time.
	ctr *vec.Counters
}

// NewEvaluator returns an evaluator with empty scratch pools.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// SetCounters directs per-tile variant tallies into ctr (nil disables
// counting). The counter block must outlive the evaluator's use.
func (ev *Evaluator) SetCounters(ctr *vec.Counters) { ev.ctr = ctr }

func (ev *Evaluator) getInt() []int64 {
	if n := len(ev.intScratch); n > 0 {
		s := ev.intScratch[n-1]
		ev.intScratch = ev.intScratch[:n-1]
		return s
	}
	return make([]int64, vec.TileSize)
}

// putInt and putBool return a scratch vector to its pool at full tile
// length, whatever length the caller resliced it to.
func (ev *Evaluator) putInt(s []int64) { ev.intScratch = append(ev.intScratch, s[:cap(s)]) }

func (ev *Evaluator) getBool() []byte {
	if n := len(ev.boolScratch); n > 0 {
		s := ev.boolScratch[n-1]
		ev.boolScratch = ev.boolScratch[:n-1]
		return s
	}
	return make([]byte, vec.TileSize)
}

func (ev *Evaluator) putBool(s []byte) { ev.boolScratch = append(ev.boolScratch, s[:cap(s)]) }

// EvalBool evaluates a bound predicate over rows [base, base+n), writing
// 0/1 into out[:n] — the prepass loop of Figure 1.
func (ev *Evaluator) EvalBool(e Expr, base, n int, out []byte) {
	switch x := e.(type) {
	case *Cmp:
		// Width-specialized fast path: column vs literal compares at the
		// column's physical width, hoisting the Kind switch out of the
		// loop (control-flow duplication by hand).
		if col, c, op, ok := colConstCmp(x); ok {
			if col.col.CmpConstInto(op, c, base, n, out) {
				if ev.ctr != nil {
					ev.ctr.Cmp[int(col.col.Kind)]++
					if col.col.Dict != nil {
						ev.ctr.DictKeys++
					}
				}
				return
			}
		}
		if lc, ok := x.L.(*Col); ok {
			if rc, ok := x.R.(*Col); ok && lc.col.CmpColInto(vec.CmpOp(x.Op), rc.col, base, n, out) {
				if ev.ctr != nil {
					ev.ctr.Cmp[int(lc.col.Kind)]++
				}
				return
			}
		}
		l := ev.getInt()
		r := ev.getInt()
		ev.EvalInt(x.L, base, n, l)
		ev.EvalInt(x.R, base, n, r)
		vec.CmpCols(vec.CmpOp(x.Op), l[:n], r[:n], out)
		if ev.ctr != nil {
			ev.ctr.Cmp[3]++ // generic compare runs widened to int64
		}
		ev.putInt(l)
		ev.putInt(r)
	case *Between:
		if col, ok := x.X.(*Col); ok {
			if lo, okLo := constVal(x.Lo); okLo {
				if hi, okHi := constVal(x.Hi); okHi {
					if col.col.CmpBetweenInto(lo, hi, base, n, out) {
						if ev.ctr != nil {
							ev.ctr.Cmp[int(col.col.Kind)]++
						}
						return
					}
				}
			}
		}
		v := ev.getInt()
		lo := ev.getInt()
		hi := ev.getInt()
		ev.EvalInt(x.X, base, n, v)
		ev.EvalInt(x.Lo, base, n, lo)
		ev.EvalInt(x.Hi, base, n, hi)
		tmp := ev.getBool()
		vec.CmpCols(vec.GE, v[:n], lo[:n], out)
		vec.CmpCols(vec.LE, v[:n], hi[:n], tmp)
		vec.And(out[:n], tmp[:n])
		if ev.ctr != nil {
			ev.ctr.Cmp[3]++
		}
		ev.putBool(tmp)
		ev.putInt(v)
		ev.putInt(lo)
		ev.putInt(hi)
	case *In:
		if x.member != nil {
			if col, ok := x.X.(*Col); ok {
				col.col.LookupInto(base, n, x.member, out)
				if ev.ctr != nil {
					ev.ctr.DictKeys++
				}
				return
			}
		}
		v := ev.getInt()
		ev.EvalInt(x.X, base, n, v)
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		tmp := ev.getBool()
		for _, item := range x.List {
			c := evalConst(item)
			vec.CmpConstEQ(v[:n], c, tmp)
			vec.Or(out[:n], tmp[:n])
		}
		ev.putBool(tmp)
		ev.putInt(v)
	case *Like:
		if col, ok := x.X.(*Col); ok {
			col.col.LookupInto(base, n, x.match, out)
			return
		}
		v := ev.getInt()
		ev.EvalInt(x.X, base, n, v)
		for i := 0; i < n; i++ {
			out[i] = x.match[v[i]]
		}
		ev.putInt(v)
	case *Logic:
		switch x.Op {
		case And:
			ev.EvalBool(x.Args[0], base, n, out)
			tmp := ev.getBool()
			for _, a := range x.Args[1:] {
				ev.EvalBool(a, base, n, tmp)
				vec.And(out[:n], tmp[:n])
			}
			ev.putBool(tmp)
		case Or:
			ev.EvalBool(x.Args[0], base, n, out)
			tmp := ev.getBool()
			for _, a := range x.Args[1:] {
				ev.EvalBool(a, base, n, tmp)
				vec.Or(out[:n], tmp[:n])
			}
			ev.putBool(tmp)
		default:
			ev.EvalBool(x.Args[0], base, n, out)
			vec.Not(out[:n])
		}
	default:
		// Generic integer expression used as a predicate: nonzero is true.
		v := ev.getInt()
		ev.EvalInt(e, base, n, v)
		vec.CmpConstNE(v[:n], 0, out)
		ev.putInt(v)
	}
}

// EvalInt evaluates a bound integer expression over rows [base, base+n),
// writing into out[:n].
func (ev *Evaluator) EvalInt(e Expr, base, n int, out []int64) {
	switch x := e.(type) {
	case *Col:
		c := x.col
		c.WidenInto(base, n, out)
		if ev.ctr != nil {
			ev.ctr.Widen[int(c.Kind)]++
			if c.Dict != nil {
				ev.ctr.DictKeys++
			}
		}
	case *Const:
		for i := 0; i < n; i++ {
			out[i] = x.Val
		}
	case *StrConst:
		c := x.Code()
		for i := 0; i < n; i++ {
			out[i] = c
		}
	case *Arith:
		l := ev.getInt()
		ev.EvalInt(x.L, base, n, l)
		r := ev.getInt()
		ev.EvalInt(x.R, base, n, r)
		switch x.Op {
		case Add:
			for i := 0; i < n; i++ {
				out[i] = l[i] + r[i]
			}
		case Sub:
			for i := 0; i < n; i++ {
				out[i] = l[i] - r[i]
			}
		case Mul:
			for i := 0; i < n; i++ {
				out[i] = l[i] * r[i]
			}
		default:
			quoInto(l[:n], r[:n], out[:n])
		}
		ev.putInt(l)
		ev.putInt(r)
	case *Case:
		// Unconditional evaluation of all arms with masking — the SWOLE
		// treatment of CASE from Section III-A. First-match-wins
		// semantics are preserved by masking each arm with "its condition
		// and no earlier condition".
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		taken := ev.getBool()
		for i := 0; i < n; i++ {
			taken[i] = 0
		}
		cond := ev.getBool()
		val := ev.getInt()
		for _, w := range x.Whens {
			ev.EvalBool(w.Cond, base, n, cond)
			ev.EvalInt(w.Then, base, n, val)
			for i := 0; i < n; i++ {
				m := int64(cond[i] &^ taken[i])
				out[i] += val[i] * m
				taken[i] |= cond[i]
			}
		}
		if x.Else != nil {
			ev.EvalInt(x.Else, base, n, val)
			for i := 0; i < n; i++ {
				out[i] += val[i] * int64(1-taken[i])
			}
		}
		ev.putInt(val)
		ev.putBool(cond)
		ev.putBool(taken)
	default:
		// Boolean nodes used as integers.
		b := ev.getBool()
		ev.EvalBool(e, base, n, b)
		for i := 0; i < n; i++ {
			out[i] = int64(b[i])
		}
		ev.putBool(b)
	}
}

// quo is integer division with the masked-evaluation convention every
// evaluator in this package shares: a zero divisor yields 0 instead of
// trapping. Tile kernels evaluate arguments on every lane of a tile,
// including lanes the predicate rejected (value masking, key masking,
// CASE arms), so a divisor that is zero only on rejected rows must not
// stop the scan; a statement whose selected rows never divide by zero
// answers exactly as under short-circuit evaluation.
func quo(l, r int64) int64 {
	if r == 0 {
		return 0
	}
	return l / r
}

// quoInto writes quo(l[i], r[i]) into out; out may alias l or r.
func quoInto(l, r, out []int64) {
	if len(l) == 0 {
		return
	}
	_ = r[len(l)-1]
	_ = out[len(l)-1]
	for i := range l {
		d := r[i]
		q := int64(0)
		if d != 0 {
			q = l[i] / d
		}
		out[i] = q
	}
}

func evalConst(e Expr) int64 {
	switch x := e.(type) {
	case *Const:
		return x.Val
	case *StrConst:
		return x.Code()
	}
	panic("expr: IN list items must be literals")
}

// constVal reports e's value if e is a literal.
func constVal(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *Const:
		return x.Val, true
	case *StrConst:
		return x.Code(), true
	}
	return 0, false
}

// colConstCmp matches a comparison of a bare column against a literal on
// either side, normalizing "literal op column" by flipping the operator.
func colConstCmp(x *Cmp) (*Col, int64, vec.CmpOp, bool) {
	if col, ok := x.L.(*Col); ok {
		if c, isConst := constVal(x.R); isConst {
			return col, c, vec.CmpOp(x.Op), true
		}
	}
	if col, ok := x.R.(*Col); ok {
		if c, isConst := constVal(x.L); isConst {
			return col, c, flipCmp(vec.CmpOp(x.Op)), true
		}
	}
	return nil, 0, 0, false
}

// flipCmp mirrors an operator across its operands: c op v ⇔ v flip(op) c.
func flipCmp(op vec.CmpOp) vec.CmpOp {
	switch op {
	case vec.LT:
		return vec.GT
	case vec.LE:
		return vec.GE
	case vec.GT:
		return vec.LT
	case vec.GE:
		return vec.LE
	}
	return op // EQ and NE are symmetric
}
