package storage

import "github.com/reprolab/swole/internal/vec"

// This file dispatches the width-specialized vec kernels for a column: the
// Kind switch runs once per tile instead of once per element, so the inner
// loops are the tight per-width instantiations the paper's generated code
// would contain. Each method returns which specialized path ran so callers
// can tally variant counters.

// WidenInto copies rows [base, base+n) into out[:n] widened to int64 using
// the unrolled width-specialized kernel.
func (c *Column) WidenInto(base, n int, out []int64) {
	switch c.Kind {
	case KindInt8:
		vec.WidenU(c.I8[base:base+n], out)
	case KindInt16:
		vec.WidenU(c.I16[base:base+n], out)
	case KindInt32:
		vec.WidenU(c.I32[base:base+n], out)
	default:
		copy(out[:n], c.I64[base:base+n])
	}
}

// kindRange returns the value range representable at the column's width.
func kindRange(k Kind) (lo, hi int64) {
	switch k {
	case KindInt8:
		return -1 << 7, 1<<7 - 1
	case KindInt16:
		return -1 << 15, 1<<15 - 1
	case KindInt32:
		return -1 << 31, 1<<31 - 1
	default:
		return -1 << 63, 1<<63 - 1
	}
}

// CmpConstInto evaluates column[base+i] op k into out[:n] at the column's
// native width with the unrolled kernels. It reports false when the
// constant does not fit the physical width (the caller falls back to the
// widened int64 path, which is always correct).
func (c *Column) CmpConstInto(op vec.CmpOp, k int64, base, n int, out []byte) bool {
	lo, hi := kindRange(c.Kind)
	if k < lo || k > hi {
		return false
	}
	switch c.Kind {
	case KindInt8:
		vec.CmpConstU(op, c.I8[base:base+n], int8(k), out)
	case KindInt16:
		vec.CmpConstU(op, c.I16[base:base+n], int16(k), out)
	case KindInt32:
		vec.CmpConstU(op, c.I32[base:base+n], int32(k), out)
	default:
		vec.CmpConstU(op, c.I64[base:base+n], k, out)
	}
	return true
}

// CmpColInto evaluates column[base+i] op o[base+i] into out[:n] at the
// columns' shared native width, with no widening pass. It reports false
// when the two columns are stored at different widths.
func (c *Column) CmpColInto(op vec.CmpOp, o *Column, base, n int, out []byte) bool {
	if c.Kind != o.Kind {
		return false
	}
	switch c.Kind {
	case KindInt8:
		vec.CmpCols(op, c.I8[base:base+n], o.I8[base:base+n], out)
	case KindInt16:
		vec.CmpCols(op, c.I16[base:base+n], o.I16[base:base+n], out)
	case KindInt32:
		vec.CmpCols(op, c.I32[base:base+n], o.I32[base:base+n], out)
	default:
		vec.CmpCols(op, c.I64[base:base+n], o.I64[base:base+n], out)
	}
	return true
}

// CmpBetweenInto evaluates lo <= column[base+i] <= hi into out[:n] at the
// column's native width. It reports false when either bound falls outside
// the physical width.
func (c *Column) CmpBetweenInto(klo, khi int64, base, n int, out []byte) bool {
	rlo, rhi := kindRange(c.Kind)
	if klo < rlo || klo > rhi || khi < rlo || khi > rhi {
		return false
	}
	switch c.Kind {
	case KindInt8:
		vec.CmpConstBetweenU(c.I8[base:base+n], int8(klo), int8(khi), out)
	case KindInt16:
		vec.CmpConstBetweenU(c.I16[base:base+n], int16(klo), int16(khi), out)
	case KindInt32:
		vec.CmpConstBetweenU(c.I32[base:base+n], int32(klo), int32(khi), out)
	default:
		vec.CmpConstBetweenU(c.I64[base:base+n], klo, khi, out)
	}
	return true
}

// MaskKeysInto materializes masked group-by keys from rows [base, base+n)
// at the column's native width: lanes whose cmp lane is 0 receive nullKey.
func (c *Column) MaskKeysInto(base, n int, cmp []byte, nullKey int64, out []int64) {
	switch c.Kind {
	case KindInt8:
		vec.MaskKeysU(c.I8[base:base+n], cmp, nullKey, out)
	case KindInt16:
		vec.MaskKeysU(c.I16[base:base+n], cmp, nullKey, out)
	case KindInt32:
		vec.MaskKeysU(c.I32[base:base+n], cmp, nullKey, out)
	default:
		vec.MaskKeysU(c.I64[base:base+n], cmp, nullKey, out)
	}
}

// SumMaskedRange sums column[base+i]*cmp[i] over [base, base+n) with the
// unrolled masked-aggregation kernel at native width.
func (c *Column) SumMaskedRange(base, n int, cmp []byte) int64 {
	switch c.Kind {
	case KindInt8:
		return vec.SumMaskedU(c.I8[base:base+n], cmp)
	case KindInt16:
		return vec.SumMaskedU(c.I16[base:base+n], cmp)
	case KindInt32:
		return vec.SumMaskedU(c.I32[base:base+n], cmp)
	default:
		return vec.SumMaskedU(c.I64[base:base+n], cmp)
	}
}

// LookupInto maps rows [base, base+n) through a value-indexed byte table
// into out[:n] at the column's native width: the per-row form of a
// bind-time predicate table (LIKE patterns and IN lists over dictionary
// codes). Every value must index the table.
func (c *Column) LookupInto(base, n int, table []byte, out []byte) {
	switch c.Kind {
	case KindInt8:
		lookup(c.I8[base:base+n], table, out)
	case KindInt16:
		lookup(c.I16[base:base+n], table, out)
	case KindInt32:
		lookup(c.I32[base:base+n], table, out)
	default:
		lookup(c.I64[base:base+n], table, out)
	}
}

func lookup[T vec.Number](vals []T, table []byte, out []byte) {
	out = out[:len(vals)]
	for i, v := range vals {
		out[i] = table[v]
	}
}

// GatherInto writes column[pos[i]] widened to int64 into out[i] — the
// positional foreign-key gather of a parent column, one load per child
// row.
func (c *Column) GatherInto(pos []int32, out []int64) {
	switch c.Kind {
	case KindInt8:
		gather(c.I8, pos, out)
	case KindInt16:
		gather(c.I16, pos, out)
	case KindInt32:
		gather(c.I32, pos, out)
	default:
		gather(c.I64, pos, out)
	}
}

func gather[T vec.Number](vals []T, pos []int32, out []int64) {
	out = out[:len(pos)]
	for i, p := range pos {
		out[i] = int64(vals[p])
	}
}

// GatherSelInto writes column[base+sel[i]] widened to int64 into out[i]
// for the n selected tile lanes — the compacted (selection-vector) read.
func (c *Column) GatherSelInto(base int, sel []int32, out []int64) {
	switch c.Kind {
	case KindInt8:
		gatherSel(c.I8[base:], sel, out)
	case KindInt16:
		gatherSel(c.I16[base:], sel, out)
	case KindInt32:
		gatherSel(c.I32[base:], sel, out)
	default:
		gatherSel(c.I64[base:], sel, out)
	}
}

func gatherSel[T vec.Number](vals []T, sel []int32, out []int64) {
	out = out[:len(sel)]
	for i, s := range sel {
		out[i] = int64(vals[s])
	}
}
