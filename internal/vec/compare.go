package vec

import (
	"encoding/binary"
	"math/bits"
)

// This file implements the "prepass" kernels (Crotty et al., Section II-A2):
// predicates are evaluated over a full tile into a comparison vector of 0/1
// bytes, removing the control dependency that prevents vectorization in the
// data-centric strategy.

// CmpOp identifies a comparison operator for the generic kernels.
type CmpOp int

// Comparison operators supported by the prepass kernels.
const (
	LT CmpOp = iota // less than
	LE              // less than or equal
	GT              // greater than
	GE              // greater than or equal
	EQ              // equal
	NE              // not equal
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	case NE:
		return "<>"
	}
	return "?"
}

// CmpConst evaluates vals[i] op c for a tile, writing 0/1 into out.
// It dispatches once per tile, so the inner loops stay branch-free.
func CmpConst[T Number](op CmpOp, vals []T, c T, out []byte) {
	switch op {
	case LT:
		CmpConstLT(vals, c, out)
	case LE:
		CmpConstLE(vals, c, out)
	case GT:
		CmpConstGT(vals, c, out)
	case GE:
		CmpConstGE(vals, c, out)
	case EQ:
		CmpConstEQ(vals, c, out)
	case NE:
		CmpConstNE(vals, c, out)
	}
}

// CmpConstLT writes out[i] = (vals[i] < c).
func CmpConstLT[T Number](vals []T, c T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] < c)
	}
}

// CmpConstLE writes out[i] = (vals[i] <= c).
func CmpConstLE[T Number](vals []T, c T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] <= c)
	}
}

// CmpConstGT writes out[i] = (vals[i] > c).
func CmpConstGT[T Number](vals []T, c T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] > c)
	}
}

// CmpConstGE writes out[i] = (vals[i] >= c).
func CmpConstGE[T Number](vals []T, c T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] >= c)
	}
}

// CmpConstEQ writes out[i] = (vals[i] == c).
func CmpConstEQ[T Number](vals []T, c T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] == c)
	}
}

// CmpConstNE writes out[i] = (vals[i] != c).
func CmpConstNE[T Number](vals []T, c T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] != c)
	}
}

// CmpConstBetween writes out[i] = (lo <= vals[i] && vals[i] <= hi) without
// branching, used for range predicates such as TPC-H Q6's discount filter.
func CmpConstBetween[T Number](vals []T, lo, hi T, out []byte) {
	if len(vals) == 0 {
		return
	}
	_ = out[len(vals)-1]
	for i := range vals {
		out[i] = b2i(vals[i] >= lo) & b2i(vals[i] <= hi)
	}
}

// CmpCols writes out[i] = (a[i] op b[i]) for two columns, used by predicates
// such as TPC-H Q4's l_commitdate < l_receiptdate.
func CmpCols[T Number](op CmpOp, a, b []T, out []byte) {
	n := len(a)
	if n == 0 {
		return
	}
	_ = b[n-1]
	_ = out[n-1]
	switch op {
	case LT:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] < b[i])
		}
	case LE:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] <= b[i])
		}
	case GT:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] > b[i])
		}
	case GE:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] >= b[i])
		}
	case EQ:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] == b[i])
		}
	case NE:
		for i := 0; i < n; i++ {
			out[i] = b2i(a[i] != b[i])
		}
	}
}

// And combines a second predicate's results into dst: dst[i] &= src[i].
// Conjunctions in the prepass are chained this way (paper Fig. 7 queries all
// carry a conjunct "and r_y = 1").
func And(dst, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)-1]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])&binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] &= src[i]
	}
}

// Or combines a second predicate's results into dst: dst[i] |= src[i].
// Disjunctions such as TPC-H Q19's three-way OR use this kernel.
func Or(dst, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)-1]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])|binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] |= src[i]
	}
}

// Not inverts a comparison vector in place. Eager aggregation inverts the
// build-side predicate to delete non-qualifying keys (paper Section III-E).
func Not(dst []byte) {
	for i := range dst {
		dst[i] ^= 1
	}
}

// Fill sets every lane of dst to v. A missing predicate is an all-ones
// comparison vector.
func Fill(dst []byte, v byte) {
	for i := range dst {
		dst[i] = v
	}
}

// CountOnes returns the number of set lanes in a comparison vector; it is
// the tile-local selectivity numerator.
func CountOnes(cmp []byte) int {
	n, i := 0, 0
	// Lanes are 0 or 1, so a word's popcount is its lane sum.
	for ; i+8 <= len(cmp); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(cmp[i:]))
	}
	for ; i < len(cmp); i++ {
		n += int(cmp[i])
	}
	return n
}
