// Package storage implements the column-oriented in-memory storage layer
// that all code generation strategies execute over, with the compression
// schemes from the paper's Section IV: dictionary encoding for
// low-cardinality string columns, null suppression (bit-width reduction)
// for low-cardinality integer columns, and fixed-point storage for
// decimals. It also provides the foreign-key indexes whose existence
// (mandated by referential-integrity checking) SWOLE's positional bitmaps
// exploit (Section III-D).
package storage

import (
	"fmt"
	"sync/atomic"
)

// Kind is the physical width of a column after null suppression.
type Kind int

// Physical column widths.
const (
	KindInt8 Kind = iota
	KindInt16
	KindInt32
	KindInt64
)

// String returns the Go type spelling of the physical width.
func (k Kind) String() string {
	switch k {
	case KindInt8:
		return "int8"
	case KindInt16:
		return "int16"
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	}
	return "?"
}

// Bytes returns the per-value width in bytes.
func (k Kind) Bytes() int {
	switch k {
	case KindInt8:
		return 1
	case KindInt16:
		return 2
	case KindInt32:
		return 4
	default:
		return 8
	}
}

// Logical is the logical type of a column.
type Logical int

// Logical column types.
const (
	LogInt     Logical = iota // plain integer
	LogDate                   // days since 1970-01-01
	LogDecimal                // fixed-point, scaled by 10^DecimalScale
	LogString                 // dictionary-encoded string codes
)

// DecimalScale is the fixed-point scale used throughout (two fractional
// digits: prices, discounts and taxes are stored multiplied by 100).
const DecimalScale = 2

// DecimalOne is the fixed-point representation of 1.00.
const DecimalOne int64 = 100

// Column is a typed, possibly compressed column. Exactly one of the typed
// slices is non-nil, selected by Kind; strategies switch on Kind once per
// query and run width-specialized kernels, exactly like generated code
// specialised to the physical schema would.
type Column struct {
	Name string
	Kind Kind
	Log  Logical
	Dict *Dict // non-nil iff Log == LogString

	I8  []int8
	I16 []int16
	I32 []int32
	I64 []int64

	// bounds caches [min, max] once known: set by Compress, which sees
	// every value anyway, or computed by the first Bounds call.
	bounds atomic.Pointer[[2]int64]
}

// Bounds returns the smallest and largest value of the column ((0, 0)
// when it is empty). Columns are immutable, so the first call's scan is
// cached for every later one.
func (c *Column) Bounds() (lo, hi int64) {
	if b := c.bounds.Load(); b != nil {
		return b[0], b[1]
	}
	for i, n := 0, c.Len(); i < n; i++ {
		v := c.Get(i)
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	c.bounds.Store(&[2]int64{lo, hi})
	return lo, hi
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt8:
		return len(c.I8)
	case KindInt16:
		return len(c.I16)
	case KindInt32:
		return len(c.I32)
	default:
		return len(c.I64)
	}
}

// Get returns value i widened to int64 — the scalar access path used by the
// interpreted Volcano engine and the tuple-at-a-time data-centric kernels.
func (c *Column) Get(i int) int64 {
	switch c.Kind {
	case KindInt8:
		return int64(c.I8[i])
	case KindInt16:
		return int64(c.I16[i])
	case KindInt32:
		return int64(c.I32[i])
	default:
		return c.I64[i]
	}
}

// GetString returns value i decoded through the dictionary. It panics if
// the column is not a string column.
func (c *Column) GetString(i int) string {
	if c.Dict == nil {
		panic("storage: GetString on non-string column " + c.Name)
	}
	return c.Dict.Value(int(c.Get(i)))
}

// NewInt64 builds an uncompressed int64 column.
func NewInt64(name string, vals []int64, log Logical) *Column {
	return &Column{Name: name, Kind: KindInt64, Log: log, I64: vals}
}

// Compress builds a column from int64 values using null suppression: the
// narrowest physical width that losslessly holds every value is chosen
// (Section IV: "null suppression for low-cardinality integer columns").
func Compress(name string, vals []int64, log Logical) *Column {
	lo, hi := int64(0), int64(0)
	for i, v := range vals {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	// Every width's range contains 0, so choosing the width from the
	// exact bounds gives the same width as bounds widened to include 0.
	c := &Column{Name: name, Log: log}
	switch {
	case lo >= -128 && hi <= 127:
		out := make([]int8, len(vals))
		for i, v := range vals {
			out[i] = int8(v)
		}
		c.Kind, c.I8 = KindInt8, out
	case lo >= -32768 && hi <= 32767:
		out := make([]int16, len(vals))
		for i, v := range vals {
			out[i] = int16(v)
		}
		c.Kind, c.I16 = KindInt16, out
	case lo >= -(1<<31) && hi <= (1<<31)-1:
		out := make([]int32, len(vals))
		for i, v := range vals {
			out[i] = int32(v)
		}
		c.Kind, c.I32 = KindInt32, out
	default:
		out := make([]int64, len(vals))
		copy(out, vals)
		c.Kind, c.I64 = KindInt64, out
	}
	c.bounds.Store(&[2]int64{lo, hi})
	return c
}

// NewStrings builds a dictionary-encoded string column (Section IV:
// "dictionary encoding for low-cardinality string columns"). Codes are
// assigned in lexicographic order of the distinct values so that range
// predicates on strings remain order-preserving, and stored at the
// narrowest width that fits the dictionary size.
func NewStrings(name string, vals []string) *Column {
	dict, codes := BuildDict(vals)
	c := Compress(name, codes, LogString)
	c.Dict = dict
	return c
}

// NewStringsDict builds a string column over a pre-built dictionary, so
// the code width is fixed by the vocabulary rather than by which values
// appear in the data.
func NewStringsDict(name string, d *Dict, vals []string) (*Column, error) {
	codes, err := d.Encode(vals)
	if err != nil {
		return nil, err
	}
	// Width follows the dictionary size, not the observed codes.
	widest := int64(d.Len() - 1)
	c := Compress(name, append(codes, widest), LogString)
	trim(c)
	c.Dict = d
	c.bounds.Store(&[2]int64{0, widest})
	return c, nil
}

// trim drops the sentinel value appended to force the dictionary width.
func trim(c *Column) {
	switch c.Kind {
	case KindInt8:
		c.I8 = c.I8[:len(c.I8)-1]
	case KindInt16:
		c.I16 = c.I16[:len(c.I16)-1]
	case KindInt32:
		c.I32 = c.I32[:len(c.I32)-1]
	default:
		c.I64 = c.I64[:len(c.I64)-1]
	}
}

// MemBytes returns the in-memory size of the column's value array.
func (c *Column) MemBytes() int { return c.Len() * c.Kind.Bytes() }

func (c *Column) String() string {
	return fmt.Sprintf("%s %s/%s[%d]", c.Name, c.Kind, logName(c.Log), c.Len())
}

func logName(l Logical) string {
	switch l {
	case LogInt:
		return "int"
	case LogDate:
		return "date"
	case LogDecimal:
		return "decimal"
	case LogString:
		return "string"
	}
	return "?"
}
