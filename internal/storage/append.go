package storage

import "fmt"

// Append-path primitives. The store stays append-only at the table
// granularity — a table is mutated by registering a replacement — but the
// replacement built here shares the old backing arrays whenever the new
// values fit the column's physical width. Readers hold length-bounded
// slice headers (every shard view is a full slice expression), so writing
// values past the old length never races with a reader of the old view;
// the append layer serializes writers externally.

// kindFor returns the narrowest physical width that losslessly holds
// every value in [lo, hi].
func kindFor(lo, hi int64) Kind {
	switch {
	case lo >= -128 && hi <= 127:
		return KindInt8
	case lo >= -32768 && hi <= 32767:
		return KindInt16
	case lo >= -(1<<31) && hi <= (1<<31)-1:
		return KindInt32
	default:
		return KindInt64
	}
}

// Append returns a new column holding the receiver's values followed by
// vals. The receiver is never mutated: when vals fit the current physical
// width the result shares (and possibly extends in place, beyond the
// receiver's length) the backing array; when a value needs a wider
// representation the whole column is rebuilt at the wider width, leaving
// existing views on the old, value-identical array. Name, logical type
// and dictionary carry over.
func (c *Column) Append(vals []int64) *Column {
	lo, hi := int64(0), int64(0)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	k := kindFor(lo, hi)
	if k < c.Kind {
		k = c.Kind
	}
	out := &Column{Name: c.Name, Kind: k, Log: c.Log, Dict: c.Dict}
	if b := c.bounds.Load(); b != nil {
		// Widen the receiver's cached bounds by the appended values (lo
		// and hi above include 0, so they may be loose, never wrong).
		out.bounds.Store(&[2]int64{min(b[0], lo), max(b[1], hi)})
	}
	n := c.Len()
	switch k {
	case KindInt8:
		s := c.I8
		for _, v := range vals {
			s = append(s, int8(v))
		}
		out.I8 = s
	case KindInt16:
		s := c.I16
		if c.Kind != KindInt16 {
			s = make([]int16, n, n+len(vals))
			for i := 0; i < n; i++ {
				s[i] = int16(c.Get(i))
			}
		}
		for _, v := range vals {
			s = append(s, int16(v))
		}
		out.I16 = s
	case KindInt32:
		s := c.I32
		if c.Kind != KindInt32 {
			s = make([]int32, n, n+len(vals))
			for i := 0; i < n; i++ {
				s[i] = int32(c.Get(i))
			}
		}
		for _, v := range vals {
			s = append(s, int32(v))
		}
		out.I32 = s
	default:
		s := c.I64
		if c.Kind != KindInt64 {
			s = make([]int64, n, n+len(vals))
			for i := 0; i < n; i++ {
				s[i] = c.Get(i)
			}
		}
		out.I64 = append(s, vals...)
	}
	return out
}

// ExtendFKIndex returns idx extended to cover the child rows appended
// since the index was built: rows [len(idx.Pos), child.Rows()). The new
// positions are verified against the (possibly also grown) parent, so an
// append that would violate referential integrity is rejected before
// anything is registered. The existing prefix is shared with idx.
func ExtendFKIndex(idx *FKIndex, child, parent *Table) (*FKIndex, error) {
	fkCol := child.Column(idx.FK)
	pkCol := parent.Column(idx.PK)
	if fkCol == nil || pkCol == nil {
		return nil, fmt.Errorf("storage: extend fk index %s.%s -> %s.%s: missing column", idx.Child, idx.FK, idx.Parent, idx.PK)
	}
	if len(idx.Pos) > fkCol.Len() {
		return nil, fmt.Errorf("storage: extend fk index %s.%s: index covers %d rows but child has %d", idx.Child, idx.FK, len(idx.Pos), fkCol.Len())
	}
	pos := make(map[int64]int32, pkCol.Len())
	for i := 0; i < pkCol.Len(); i++ {
		k := pkCol.Get(i)
		if _, dup := pos[k]; dup {
			return nil, fmt.Errorf("storage: duplicate primary key %d in %s.%s", k, idx.Parent, idx.PK)
		}
		pos[k] = int32(i)
	}
	out := idx.Pos
	for i := len(idx.Pos); i < fkCol.Len(); i++ {
		p, ok := pos[fkCol.Get(i)]
		if !ok {
			return nil, fmt.Errorf("storage: referential integrity violation: appended %s.%s[%d]=%d has no match in %s.%s",
				idx.Child, idx.FK, i, fkCol.Get(i), idx.Parent, idx.PK)
		}
		out = append(out, p)
	}
	return &FKIndex{Child: idx.Child, FK: idx.FK, Parent: idx.Parent, PK: idx.PK, Pos: out}, nil
}

// ValidateUniqueKey checks that the column holds pairwise-distinct values,
// i.e. that it can serve as a primary key. The append path runs it on a
// parent table's key column after an append, before registering anything.
func ValidateUniqueKey(c *Column) error {
	seen := make(map[int64]struct{}, c.Len())
	for i := 0; i < c.Len(); i++ {
		v := c.Get(i)
		if _, dup := seen[v]; dup {
			return fmt.Errorf("storage: duplicate primary key %d in column %s", v, c.Name)
		}
		seen[v] = struct{}{}
	}
	return nil
}
