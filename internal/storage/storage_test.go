package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCompressPicksNarrowestWidth(t *testing.T) {
	cases := []struct {
		vals []int64
		want Kind
	}{
		{[]int64{0, 1, 127, -128}, KindInt8},
		{[]int64{0, 128}, KindInt16},
		{[]int64{0, -32769}, KindInt32},
		{[]int64{1 << 31}, KindInt64},
		{[]int64{-(1 << 31)}, KindInt32},
		{[]int64{}, KindInt8},
	}
	for _, c := range cases {
		col := Compress("c", c.vals, LogInt)
		if col.Kind != c.want {
			t.Errorf("Compress(%v) kind=%v, want %v", c.vals, col.Kind, c.want)
		}
		for i, v := range c.vals {
			if col.Get(i) != v {
				t.Errorf("Compress(%v)[%d]=%d, want %d", c.vals, i, col.Get(i), v)
			}
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		col := Compress("c", vals, LogInt)
		if col.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if col.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemBytesReflectsSuppression(t *testing.T) {
	vals := make([]int64, 1000)
	narrow := Compress("n", vals, LogInt)
	wide := NewInt64("w", vals, LogInt)
	if narrow.MemBytes() != 1000 || wide.MemBytes() != 8000 {
		t.Errorf("narrow=%d wide=%d", narrow.MemBytes(), wide.MemBytes())
	}
}

func TestDictOrderPreserving(t *testing.T) {
	vals := []string{"pear", "apple", "pear", "banana", "apple"}
	col := NewStrings("fruit", vals)
	if col.Dict.Len() != 3 {
		t.Fatalf("dict len=%d", col.Dict.Len())
	}
	// Codes must be lexicographically ordered.
	if col.Dict.Value(0) != "apple" || col.Dict.Value(1) != "banana" || col.Dict.Value(2) != "pear" {
		t.Errorf("dict order: %q %q %q", col.Dict.Value(0), col.Dict.Value(1), col.Dict.Value(2))
	}
	for i, v := range vals {
		if col.GetString(i) != v {
			t.Errorf("row %d decodes to %q, want %q", i, col.GetString(i), v)
		}
	}
	if c, ok := col.Dict.Code("banana"); !ok || c != 1 {
		t.Errorf("Code(banana)=%d,%v", c, ok)
	}
	if _, ok := col.Dict.Code("kiwi"); ok {
		t.Error("Code(kiwi) should miss")
	}
	// Narrow codes: 3 distinct values fit in int8.
	if col.Kind != KindInt8 {
		t.Errorf("string codes kind=%v, want int8", col.Kind)
	}
}

func TestDictMatchPred(t *testing.T) {
	col := NewStrings("s", []string{"PROMO BRUSHED", "STANDARD TIN", "PROMO PLATED", "ECONOMY"})
	match := col.Dict.MatchPred(func(s string) bool { return strings.HasPrefix(s, "PROMO") })
	hits := 0
	for i := 0; i < col.Len(); i++ {
		if match[col.Get(i)] == 1 {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("hits=%d, want 2", hits)
	}
}

func TestTableValidation(t *testing.T) {
	a := Compress("a", []int64{1, 2, 3}, LogInt)
	b := Compress("b", []int64{1, 2}, LogInt)
	if _, err := NewTable("t", a, b); err == nil {
		t.Error("mismatched lengths accepted")
	}
	a2 := Compress("a", []int64{4, 5, 6}, LogInt)
	if _, err := NewTable("t", a, a2); err == nil {
		t.Error("duplicate column names accepted")
	}
	tab, err := NewTable("t", a)
	if err != nil || tab.Rows() != 3 || tab.Column("a") == nil || tab.Column("z") != nil {
		t.Errorf("NewTable: %v", err)
	}
}

func TestFKIndex(t *testing.T) {
	parent := MustNewTable("s", Compress("s_pk", []int64{100, 200, 300}, LogInt))
	child := MustNewTable("r", Compress("r_fk", []int64{200, 100, 100, 300}, LogInt))
	idx, err := BuildFKIndex(child, "r_fk", parent, "s_pk")
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 0, 0, 2}
	for i, w := range want {
		if idx.Pos[i] != w {
			t.Errorf("Pos[%d]=%d, want %d", i, idx.Pos[i], w)
		}
	}
}

func TestFKIndexViolations(t *testing.T) {
	parent := MustNewTable("s", Compress("s_pk", []int64{1, 1}, LogInt))
	child := MustNewTable("r", Compress("r_fk", []int64{1}, LogInt))
	if _, err := BuildFKIndex(child, "r_fk", parent, "s_pk"); err == nil {
		t.Error("duplicate pk accepted")
	}
	parent = MustNewTable("s", Compress("s_pk", []int64{1}, LogInt))
	child = MustNewTable("r", Compress("r_fk", []int64{2}, LogInt))
	if _, err := BuildFKIndex(child, "r_fk", parent, "s_pk"); err == nil {
		t.Error("dangling fk accepted")
	}
	if _, err := BuildFKIndex(child, "nope", parent, "s_pk"); err == nil {
		t.Error("missing column accepted")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	parent := MustNewTable("s", Compress("s_pk", []int64{0, 1}, LogInt))
	child := MustNewTable("r", Compress("r_fk", []int64{1, 0, 1}, LogInt))
	db.AddTable(parent)
	db.AddTable(child)
	if err := db.AddFKIndex("r", "r_fk", "s", "s_pk"); err != nil {
		t.Fatal(err)
	}
	if db.FK("r", "r_fk", "s", "s_pk") == nil {
		t.Error("index not registered")
	}
	if db.FK("r", "r_fk", "s", "other") != nil {
		t.Error("phantom index")
	}
	if len(db.Tables()) != 2 {
		t.Errorf("Tables=%v", db.Tables())
	}
}

func TestDateRoundTrip(t *testing.T) {
	// Spot values against the time package.
	for _, s := range []string{"1970-01-01", "1992-01-01", "1995-03-15", "1998-09-02", "2000-02-29", "1996-12-31"} {
		d := MustParseDate(s)
		tm, err := time.Parse("2006-01-02", s)
		if err != nil {
			t.Fatal(err)
		}
		want := int32(tm.Unix() / 86400)
		if d != want {
			t.Errorf("%s: day=%d, want %d", s, d, want)
		}
		if FormatDate(d) != s {
			t.Errorf("FormatDate(%d)=%s, want %s", d, FormatDate(d), s)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		d := int32(rng.Intn(40000) - 1000) // ~1967..2079
		y, m, dd := YMDFromDate(d)
		if DateFromYMD(y, m, dd) != d {
			t.Fatalf("round trip failed for day %d (%04d-%02d-%02d)", d, y, m, dd)
		}
	}
}

func TestParseDateErrors(t *testing.T) {
	for _, s := range []string{"not-a-date", "1992-13-01", "1992-00-10", "1992-01-32"} {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) accepted", s)
		}
	}
}

func TestFormatDecimal(t *testing.T) {
	cases := map[int64]string{0: "0.00", 1: "0.01", 100: "1.00", -250: "-2.50", 123456: "1234.56"}
	for v, want := range cases {
		if got := FormatDecimal(v); got != want {
			t.Errorf("FormatDecimal(%d)=%s, want %s", v, got, want)
		}
	}
}

func TestColumnString(t *testing.T) {
	c := Compress("x", []int64{1}, LogDate)
	if got := c.String(); got != "x int8/date[1]" {
		t.Errorf("String()=%q", got)
	}
}

func TestGetStringPanicsOnNonString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	c := Compress("x", []int64{1}, LogInt)
	c.GetString(0)
}

func TestNewStringsDictWidthStability(t *testing.T) {
	// A 200-entry vocabulary forces int16 codes even when the data holds
	// only a few distinct values.
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("val-%03d", i)
	}
	d := NewDict(vocab)
	col, err := NewStringsDict("c", d, []string{"val-000", "val-001", "val-000"})
	if err != nil {
		t.Fatal(err)
	}
	if col.Kind != KindInt16 {
		t.Errorf("kind=%v, want int16 (vocab 200)", col.Kind)
	}
	if col.Len() != 3 {
		t.Errorf("len=%d after trim, want 3", col.Len())
	}
	if col.GetString(1) != "val-001" {
		t.Errorf("decode: %q", col.GetString(1))
	}
	// Unknown value is an error.
	if _, err := NewStringsDict("c", d, []string{"nope"}); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestDictEncodeErrors(t *testing.T) {
	d := NewDict([]string{"a", "b"})
	if _, err := d.Encode([]string{"a", "zz"}); err == nil {
		t.Error("Encode accepted unknown value")
	}
	codes, err := d.Encode([]string{"b", "a"})
	if err != nil || codes[0] != 1 || codes[1] != 0 {
		t.Errorf("Encode: %v %v", codes, err)
	}
}

func TestKindBytesAndNames(t *testing.T) {
	if KindInt8.Bytes() != 1 || KindInt16.Bytes() != 2 || KindInt32.Bytes() != 4 || KindInt64.Bytes() != 8 {
		t.Error("Bytes wrong")
	}
	if KindInt16.String() != "int16" || KindInt64.String() != "int64" {
		t.Error("Kind names wrong")
	}
	for log, want := range map[Logical]string{LogInt: "int", LogDate: "date", LogDecimal: "decimal", LogString: "string"} {
		c := Compress("x", []int64{1}, log)
		if got := c.String(); got != "x int8/"+want+"[1]" {
			t.Errorf("String()=%q", got)
		}
	}
}

func TestMustHelpers(t *testing.T) {
	db := NewDatabase()
	tab := MustNewTable("t", Compress("a", []int64{1, 2}, LogInt))
	db.AddTable(tab)
	if db.MustTable("t") != tab {
		t.Error("MustTable broken")
	}
	if tab.MustColumn("a") == nil {
		t.Error("MustColumn broken")
	}
	if tab.MemBytes() != 2 {
		t.Errorf("MemBytes=%d", tab.MemBytes())
	}
	empty := MustNewTable("e")
	if empty.Rows() != 0 {
		t.Error("empty table rows")
	}
	mustPanic(t, func() { db.MustTable("zz") })
	mustPanic(t, func() { tab.MustColumn("zz") })
	mustPanic(t, func() { db.MustFK("a", "b", "c", "d") })
	mustPanic(t, func() { MustNewTable("bad", Compress("a", []int64{1}, LogInt), Compress("a", []int64{2}, LogInt)) })
	mustPanic(t, func() { MustParseDate("nope") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestTableVersion(t *testing.T) {
	db := NewDatabase()
	if v := db.TableVersion("t"); v != 0 {
		t.Fatalf("version %d before registration", v)
	}
	db.AddTable(MustNewTable("t", Compress("a", []int64{1, 2}, LogInt)))
	if v := db.TableVersion("t"); v != 1 {
		t.Fatalf("version %d after first AddTable", v)
	}
	db.AddTable(MustNewTable("t", Compress("a", []int64{3, 4}, LogInt)))
	if v := db.TableVersion("t"); v != 2 {
		t.Fatalf("version %d after replacement", v)
	}
	if v := db.TableVersion("other"); v != 0 {
		t.Fatalf("unrelated table version %d", v)
	}
}

// TestColumnBounds checks the cached min/max: exact from Compress,
// computed on demand for other columns, widened (never narrowed) by
// Append, and the whole dictionary for string columns.
func TestColumnBounds(t *testing.T) {
	c := Compress("c", []int64{300, 120, 999}, LogInt)
	if lo, hi := c.Bounds(); lo != 120 || hi != 999 {
		t.Errorf("Compress bounds = [%d, %d], want [120, 999]", lo, hi)
	}
	a := c.Append([]int64{-5, 40})
	if lo, hi := a.Bounds(); lo > -5 || hi < 999 {
		t.Errorf("Append bounds = [%d, %d], must cover [-5, 999]", lo, hi)
	}
	raw := NewInt64("r", []int64{7, -70, 3}, LogInt)
	if lo, hi := raw.Bounds(); lo != -70 || hi != 7 {
		t.Errorf("lazy bounds = [%d, %d], want [-70, 7]", lo, hi)
	}
	if lo, hi := NewInt64("e", nil, LogInt).Bounds(); lo != 0 || hi != 0 {
		t.Errorf("empty bounds = [%d, %d], want [0, 0]", lo, hi)
	}
	d := NewDict([]string{"a", "b", "c", "d"})
	s, err := NewStringsDict("s", d, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := s.Bounds(); lo != 0 || hi != 3 {
		t.Errorf("dictionary column bounds = [%d, %d], want [0, 3]", lo, hi)
	}
}
