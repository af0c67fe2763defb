package ht

import (
	"math/rand"
	"testing"
	"unsafe"
)

// refGroup is the reference state of one group under ops {sum, min, max}.
type refGroup struct{ sum, mn, mx, cnt int64 }

// TestSlotsFoldMatchesReference folds random tiles through Slots,
// FoldSlots and CountSlots — with key-masked lanes and tiles large enough
// to grow the table mid-tile — and checks every group against a map.
func TestSlotsFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := NewAggTable(1, 4)
	tab.SetOps([]AccOp{AccSum, AccMin, AccMax})
	want := map[int64]*refGroup{}
	keys := make([]int64, 1024)
	vals := make([]int64, 1024)
	slots := make([]int32, 1024)
	var masked int64
	for tile := 0; tile < 20; tile++ {
		for i := range keys {
			keys[i] = int64(rng.Intn(3000))
			vals[i] = int64(rng.Intn(2001) - 1000)
			if rng.Intn(5) == 0 {
				keys[i] = NullKey
				masked++
				continue
			}
			g := want[keys[i]]
			if g == nil {
				g = &refGroup{mn: vals[i], mx: vals[i]}
				want[keys[i]] = g
			}
			g.sum += vals[i]
			g.cnt++
			g.mn = min(g.mn, vals[i])
			g.mx = max(g.mx, vals[i])
		}
		tab.Slots(keys, slots)
		for a := 0; a < 3; a++ {
			tab.FoldSlots(slots, a, vals)
		}
		tab.CountSlots(slots)
	}
	if tab.Grows == 0 {
		t.Fatal("fixture never grew the table mid-tile")
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len=%d, want %d", tab.Len(), len(want))
	}
	if tab.Count(-1) != masked {
		t.Errorf("throwaway count %d, want %d", tab.Count(-1), masked)
	}
	check := func(tab *AggTable, scale int64) {
		t.Helper()
		tab.ForEach(false, func(k int64, s int) {
			g := want[k]
			if g == nil {
				t.Fatalf("unexpected group %d", k)
			}
			if tab.Acc(s, 0) != g.sum*scale || tab.Acc(s, 1) != g.mn || tab.Acc(s, 2) != g.mx || tab.Count(s) != g.cnt*scale {
				t.Fatalf("group %d: sum=%d min=%d max=%d cnt=%d, want %d %d %d %d", k,
					tab.Acc(s, 0), tab.Acc(s, 1), tab.Acc(s, 2), tab.Count(s), g.sum*scale, g.mn, g.mx, g.cnt*scale)
			}
		})
	}
	check(tab, 1)

	// Merging the table into an empty one and then into itself doubles
	// sums and counts and leaves min and max alone.
	dst := NewAggTable(3, 8)
	dst.SetOps([]AccOp{AccSum, AccMin, AccMax})
	dst.Merge(tab)
	dst.Merge(tab)
	check(dst, 2)

	// SetOps empties the table and keeps its capacity.
	c := tab.Cap()
	tab.SetOps([]AccOp{AccMax})
	if tab.Len() != 0 || tab.Cap() != c || tab.Count(-1) != 0 {
		t.Fatalf("SetOps: Len=%d Cap=%d->%d throwaway=%d", tab.Len(), c, tab.Cap(), tab.Count(-1))
	}
	tab.Slots([]int64{7, 7}, slots)
	tab.FoldSlots(slots[:2], 0, []int64{-5, -9})
	if s := tab.Find(7); tab.Acc(s, 0) != -5 {
		t.Errorf("max from identity = %d, want -5", tab.Acc(s, 0))
	}
	tab.SetOps([]AccOp{AccMin})
	tab.Slots([]int64{7, NullKey}, slots)
	tab.FoldSlots(slots[:2], 0, []int64{12, 3})
	if s := tab.Find(7); tab.Acc(s, 0) != 12 || tab.Throwaway[0] != 3 {
		t.Errorf("min = %d, throwaway min = %d, want 12 and 3", tab.Acc(s, 0), tab.Throwaway[0])
	}
}

// TestAggTableHeaderLines pins the AggTable header to whole cache lines,
// so back-to-back per-worker tables never share the line their lookups
// write.
func TestAggTableHeaderLines(t *testing.T) {
	if s := unsafe.Sizeof(AggTable{}); s%64 != 0 {
		t.Errorf("AggTable is %d bytes, not a multiple of a 64-byte cache line", s)
	}
}
