package ht

import "math"

// AggTable is a group-by aggregation hash table. Each group carries a fixed
// number of int64 accumulators plus a tuple count. Accumulators sum by
// default; SetOps makes any of them keep a running min or max instead,
// which with the count covers sum/avg/count/min/max (avg = sum/count at
// finalization; decimals are fixed-point int64 per Section IV).
//
// Three features exist specifically for SWOLE:
//
//   - A throwaway entry reached via NullKey (key masking, Section III-B):
//     masked tuples aggregate into Throwaway, one row past the last slot,
//     so the access stays cache-resident no matter how large the table
//     grows, and tile-at-a-time updates (FoldSlots) treat it as an
//     ordinary slot with no branch per lane.
//   - A per-group validity flag (value masking, Section III-B): when values
//     are masked rather than keys, every tuple performs a real lookup, so
//     groups can be created by tuples that the predicate rejected; OR-ing
//     the predicate bit into the flag distinguishes them from real groups
//     whose aggregate happens to be zero.
//   - Tombstone deletion (eager aggregation, Section III-E): after the
//     unconditional aggregation, keys filtered by the join are deleted.
//
// Tables are built to be recycled across queries: Reset invalidates every
// slot by bumping an epoch stamp instead of zeroing the arrays, so a
// steady-state workload reuses one table (and its capacity) forever with
// an O(1) reset. A slot is live only when its epoch matches the table's
// current generation; inserts lazily re-zero whatever stale accumulator
// state a reclaimed slot carries.
type AggTable struct {
	nAccs int
	keys  []int64
	state []byte
	epoch []uint32 // slot is from the current generation iff epoch[i] == cur
	cur   uint32   // current generation
	accs  []int64  // (capacity+1) * nAccs, slot-major; the last row is the throwaway
	count []int64  // capacity+1
	valid []byte   // capacity+1
	len   int      // live groups
	used  int      // full + tombstone slots this generation; growth trigger
	mask  uint64

	// rules gives each accumulator its combine rule and the identity a
	// fresh group starts from; nil means every accumulator sums from 0.
	rules *accRules

	// Throwaway receives aggregates for NullKey lookups: it aliases the
	// row past the last slot, whose tuple count is Count(-1). Its contents
	// are never part of a query result.
	Throwaway []int64

	// Probes counts total probe steps, exposed for cost-model validation.
	Probes uint64
	// Grows counts capacity doublings triggered by Lookup. A caller that
	// preallocated from a cardinality hint (Reserve) can assert that a
	// scan never grew the table mid-flight: Grows stays 0.
	Grows uint64

	// pf sinks the loads issued by Touch so they cannot be eliminated.
	pf uint64

	// The struct is padded to a whole number of cache lines. Per-worker
	// tables are allocated back to back and each worker writes its own
	// table's header on every lookup (Probes, used, len); a size that is
	// not a multiple of the line would put two workers' headers on one
	// line and make them contend for it.
	_ [16]byte
}

// accRules are an AggTable's accumulator rules (SetOps).
type accRules struct {
	ops  []AccOp
	init []int64
}

// NewAggTable returns a table with nAccs accumulators per group and room
// for about hint groups before growing. Non-positive hints get the
// minimum capacity.
func NewAggTable(nAccs, hint int) *AggTable {
	t := &AggTable{nAccs: nAccs, cur: 1}
	t.alloc(hintCap(hint))
	return t
}

// alloc installs fresh arrays of the given power-of-two capacity plus the
// throwaway row, all of it empty.
func (t *AggTable) alloc(capacity int) {
	t.keys = make([]int64, capacity)
	t.state = make([]byte, capacity)
	t.epoch = make([]uint32, capacity)
	t.accs = make([]int64, (capacity+1)*t.nAccs)
	t.count = make([]int64, capacity+1)
	t.valid = make([]byte, capacity+1)
	t.mask = uint64(capacity - 1)
	t.Throwaway = t.accs[capacity*t.nAccs:]
	t.initRow(capacity)
}

// sink is the throwaway row's index: one past the last slot.
func (t *AggTable) sink() int { return len(t.keys) }

// initRow resets row j's accumulators to their identities.
func (t *AggTable) initRow(j int) {
	row := t.accs[j*t.nAccs : (j+1)*t.nAccs]
	if t.rules == nil {
		for a := range row {
			row[a] = 0
		}
		return
	}
	copy(row, t.rules.init)
}

// AccOp is how an accumulator folds values.
type AccOp uint8

// Accumulator rules.
const (
	AccSum AccOp = iota // running sum, identity 0
	AccMin              // running minimum, identity math.MaxInt64
	AccMax              // running maximum, identity math.MinInt64
)

func (op AccOp) identity() int64 {
	switch op {
	case AccMin:
		return math.MaxInt64
	case AccMax:
		return math.MinInt64
	}
	return 0
}

// SetOps reshapes the table to len(ops) accumulators with the given
// rules and empties it, keeping its slot capacity: a pooled table moves
// between plans with different aggregate lists without reallocating
// unless the new layout needs more accumulator space.
func (t *AggTable) SetOps(ops []AccOp) {
	n := len(ops)
	t.nAccs = n
	if t.rules == nil {
		t.rules = &accRules{}
	}
	r := t.rules
	r.ops = append(r.ops[:0], ops...)
	r.init = r.init[:0]
	for _, op := range ops {
		r.init = append(r.init, op.identity())
	}
	need := (len(t.keys) + 1) * n
	if cap(t.accs) < need {
		t.accs = make([]int64, need)
	}
	t.accs = t.accs[:need]
	t.Throwaway = t.accs[len(t.keys)*n:]
	t.Reset()
}

// Reset empties the table in O(1) by advancing the generation counter,
// keeping the allocated capacity for reuse. Slots from earlier generations
// read as empty and are re-initialized lazily when an insert reclaims
// them. The Probes and Grows statistics are preserved (they are
// cumulative); the throwaway entry is cleared.
func (t *AggTable) Reset() {
	t.cur++
	if t.cur == 0 {
		// The 32-bit generation wrapped (after ~4 billion resets): stale
		// stamps could now collide with the new generation, so fall back
		// to a hard clear once.
		for i := range t.epoch {
			t.epoch[i] = 0
		}
		t.cur = 1
	}
	t.len, t.used = 0, 0
	t.initRow(t.sink())
	t.count[t.sink()] = 0
	t.valid[t.sink()] = 0
}

// setEpochForTest forces the generation counter to cur, re-stamping every
// slot of the current generation so it stays live. Tests use it to reach
// the 32-bit wrap fallback in Reset without four billion calls.
func (t *AggTable) setEpochForTest(cur uint32) {
	for i := range t.epoch {
		if t.epoch[i] == t.cur {
			t.epoch[i] = cur
		}
	}
	t.cur = cur
}

// Reserve grows the table, if needed, so that about hint groups fit
// without Lookup ever triggering grow() — the cardinality-hinted
// preallocation used when cached statistics predict the group count. It
// rehashes any live groups and does not count toward Grows. Non-positive
// hints never shrink the table and are no-ops.
func (t *AggTable) Reserve(hint int) {
	capacity := hintCap(hint)
	if capacity <= len(t.keys) {
		return
	}
	t.rehash(capacity)
}

// NAccs returns the number of accumulators per group.
func (t *AggTable) NAccs() int { return t.nAccs }

// Len returns the number of groups, excluding the throwaway entry.
func (t *AggTable) Len() int { return t.len }

// Cap returns the current slot capacity; the cost model uses it to place
// the table in a cache class.
func (t *AggTable) Cap() int { return len(t.keys) }

// SlotBytes returns the approximate in-memory size of one slot, used by the
// cost model to decide which cache level the table occupies.
func (t *AggTable) SlotBytes() int { return 8 + 1 + 8*t.nAccs + 8 + 1 }

// live returns the effective state of slot i in the current generation.
func (t *AggTable) live(i uint64) byte {
	if t.epoch[i] != t.cur {
		return slotEmpty
	}
	return t.state[i]
}

// Lookup returns the slot index for key, inserting an empty group if
// absent. A NullKey lookup returns -1, which the Add* methods route to the
// throwaway entry. The returned slot is only valid until the next Lookup,
// which may grow the table; callers accumulate immediately, exactly as the
// generated code in the paper's Figure 4 does.
func (t *AggTable) Lookup(key int64) int {
	if key == NullKey {
		return -1
	}
	if t.used >= len(t.keys)*3/4 {
		t.Grows++
		t.rehash(len(t.keys) * 2)
	}
	i := hash64(uint64(key)) & t.mask
	grave := -1
	for {
		t.Probes++
		switch t.live(i) {
		case slotEmpty:
			// Key is absent; insert into the earliest tombstone on the
			// probe chain if one was seen, else into this empty slot.
			j := int(i)
			if grave >= 0 {
				j = grave
			} else {
				t.used++
			}
			t.insertAt(j, key)
			return j
		case slotTombstone:
			if grave < 0 {
				grave = int(i)
			}
		case slotFull:
			if t.keys[i] == key {
				return int(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

// insertAt claims slot j for key as an empty group. It is kept out of
// Lookup so the probe loop, which most lookups never leave, stays small.
//
//go:noinline
func (t *AggTable) insertAt(j int, key int64) {
	t.state[j] = slotFull
	t.epoch[j] = t.cur
	t.keys[j] = key
	// Re-zero whatever a previous generation (or a tombstoned group)
	// left in the slot.
	t.count[j] = 0
	t.valid[j] = 0
	t.initRow(j)
	t.len++
}

// Find returns the slot for key without inserting, or -2 if absent.
// NullKey returns -1 (the throwaway).
func (t *AggTable) Find(key int64) int {
	if key == NullKey {
		return -1
	}
	i := hash64(uint64(key)) & t.mask
	for {
		t.Probes++
		switch t.live(i) {
		case slotEmpty:
			return -2
		case slotFull:
			if t.keys[i] == key {
				return int(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether key occupies a live slot — the read-only
// analogue of Find(key) >= 0 (NullKey is absent: it maps to the throwaway
// entry, not a slot). It does not touch the Probes statistics counter, so
// concurrent probe-side workers may call it on a table whose build phase
// has finished.
func (t *AggTable) Contains(key int64) bool {
	if key == NullKey {
		return false
	}
	i := hash64(uint64(key)) & t.mask
	for {
		switch t.live(i) {
		case slotEmpty:
			return false
		case slotFull:
			if t.keys[i] == key {
				return true
			}
		}
		i = (i + 1) & t.mask
	}
}

// Add accumulates v into accumulator acc of the given slot and bumps the
// group's tuple count once per acc==0 call. Slot -1 targets the throwaway.
func (t *AggTable) Add(slot, acc int, v int64) {
	if slot < 0 {
		slot = t.sink()
	}
	t.accs[slot*t.nAccs+acc] += v
	if acc == 0 {
		t.count[slot]++
	}
	t.valid[slot] = 1
}

// AddMasked accumulates v*m and ORs m into the group's validity flag — the
// value-masking bookkeeping step of Section III-B. m must be 0 or 1.
func (t *AggTable) AddMasked(slot, acc int, v int64, m byte) {
	if slot < 0 {
		slot = t.sink()
	}
	t.accs[slot*t.nAccs+acc] += v * int64(m)
	if acc == 0 {
		t.count[slot] += int64(m)
	}
	t.valid[slot] |= m
}

// Slots resolves a tile of keys to slot indexes, inserting absent groups;
// NullKey lanes (key masking) resolve to the throwaway row. If an insert
// grows the table, the lanes resolved before it are resolved again, so
// every returned slot stays valid until the next Lookup or Slots call and
// FoldSlots/CountSlots can then update the tile one accumulator at a time.
//
// A small direct-mapped memo of recent keys short-circuits the probe for
// repeated keys, which is every lane of a few-group aggregation.
func (t *AggTable) Slots(keys []int64, slots []int32) {
	const memoSize = 16
	var memoKey [memoSize]int64
	var memoSlot [memoSize]int32
	for i := range memoKey {
		memoKey[i] = NullKey
	}
	sink := int32(t.sink())
	slots = slots[:len(keys)]
	for i, k := range keys {
		if k == NullKey {
			slots[i] = sink
			continue
		}
		m := uint64(k) % memoSize
		if memoKey[m] == k {
			slots[i] = memoSlot[m]
			continue
		}
		g := t.Grows
		s := int32(t.Lookup(k))
		if t.Grows != g {
			// The rehash moved every slot: forget the memo and resolve
			// the earlier lanes again.
			sink = int32(t.sink())
			for j := range memoKey {
				memoKey[j] = NullKey
			}
			for j := 0; j < i; j++ {
				if keys[j] == NullKey {
					slots[j] = sink
				} else {
					slots[j] = int32(t.Find(keys[j]))
				}
			}
		}
		memoKey[m], memoSlot[m] = k, s
		slots[i] = s
	}
}

// SumRows folds a tile lane by lane: for every lane i it adds vals[k][i]
// into sum accumulator accs[k] of slots[i] and bumps the lane's tuple
// count. The updates of one lane are independent of each other, so they
// overlap even when consecutive lanes hit the same group — the few-group
// case, where one loop per accumulator would serialize on a single
// memory location. Accumulators go in passes of at most four, the widest
// unrolled loop.
func (t *AggTable) SumRows(slots []int32, accs []int, vals [][]int64) {
	passes := (len(accs) + 3) / 4
	if passes == 0 {
		t.CountSlots(slots)
		return
	}
	for p := 0; p < passes; p++ {
		lo, hi := p*len(accs)/passes, (p+1)*len(accs)/passes
		t.sumPass(slots, accs[lo:hi], vals[lo:hi], p == 0)
	}
}

// sumPass is one SumRows pass over one to four accumulators; count
// selects the pass that also bumps the tuple counts.
func (t *AggTable) sumPass(slots []int32, accs []int, vals [][]int64, count bool) {
	n := t.nAccs
	m := len(slots)
	switch len(accs) {
	case 1:
		a0, v0 := accs[0], vals[0][:m]
		for i, s := range slots {
			t.accs[int(s)*n+a0] += v0[i]
			if count {
				t.count[s]++
				t.valid[s] = 1
			}
		}
	case 2:
		a0, a1 := accs[0], accs[1]
		v0, v1 := vals[0][:m], vals[1][:m]
		for i, s := range slots {
			b := int(s) * n
			t.accs[b+a0] += v0[i]
			t.accs[b+a1] += v1[i]
			if count {
				t.count[s]++
				t.valid[s] = 1
			}
		}
	case 3:
		a0, a1, a2 := accs[0], accs[1], accs[2]
		v0, v1, v2 := vals[0][:m], vals[1][:m], vals[2][:m]
		for i, s := range slots {
			b := int(s) * n
			t.accs[b+a0] += v0[i]
			t.accs[b+a1] += v1[i]
			t.accs[b+a2] += v2[i]
			if count {
				t.count[s]++
				t.valid[s] = 1
			}
		}
	default:
		a0, a1, a2, a3 := accs[0], accs[1], accs[2], accs[3]
		v0, v1, v2, v3 := vals[0][:m], vals[1][:m], vals[2][:m], vals[3][:m]
		for i, s := range slots {
			b := int(s) * n
			t.accs[b+a0] += v0[i]
			t.accs[b+a1] += v1[i]
			t.accs[b+a2] += v2[i]
			t.accs[b+a3] += v3[i]
			if count {
				t.count[s]++
				t.valid[s] = 1
			}
		}
	}
}

// FoldSlots folds vals[i] into accumulator acc of slots[i] under the
// accumulator's rule, one tight loop per tile and accumulator.
func (t *AggTable) FoldSlots(slots []int32, acc int, vals []int64) {
	vals = vals[:len(slots)]
	n := t.nAccs
	op := AccSum
	if t.rules != nil {
		op = t.rules.ops[acc]
	}
	switch op {
	case AccMin:
		for i, s := range slots {
			if p := &t.accs[int(s)*n+acc]; vals[i] < *p {
				*p = vals[i]
			}
		}
	case AccMax:
		for i, s := range slots {
			if p := &t.accs[int(s)*n+acc]; vals[i] > *p {
				*p = vals[i]
			}
		}
	default:
		for i, s := range slots {
			t.accs[int(s)*n+acc] += vals[i]
		}
	}
}

// CountSlots bumps the tuple count of every lane's slot and marks the
// groups valid.
func (t *AggTable) CountSlots(slots []int32) {
	for _, s := range slots {
		t.count[s]++
		t.valid[s] = 1
	}
}

// MergeGroup folds src's group at srcSlot into this table's group key —
// counts add, accumulators combine under this table's rules, validity
// ORs — inserting the group if absent. Worker-partial tables merge into
// one this way after a parallel scan.
func (t *AggTable) MergeGroup(key int64, src *AggTable, srcSlot int) {
	j := t.Lookup(key)
	if j < 0 {
		j = t.sink()
	}
	n := t.nAccs
	for a := 0; a < n; a++ {
		v := src.accs[srcSlot*src.nAccs+a]
		p := &t.accs[j*n+a]
		op := AccSum
		if t.rules != nil {
			op = t.rules.ops[a]
		}
		switch {
		case op == AccMin && v < *p, op == AccMax && v > *p:
			*p = v
		case op == AccSum:
			*p += v
		}
	}
	t.count[j] += src.count[srcSlot]
	t.valid[j] |= src.valid[srcSlot]
}

// Merge folds every live group of src (valid or not) into this table.
func (t *AggTable) Merge(src *AggTable) {
	for i := range src.keys {
		if src.live(uint64(i)) == slotFull {
			t.MergeGroup(src.keys[i], src, i)
		}
	}
}

// Acc returns accumulator acc of slot (slot -1 reads the throwaway).
func (t *AggTable) Acc(slot, acc int) int64 {
	if slot < 0 {
		slot = t.sink()
	}
	return t.accs[slot*t.nAccs+acc]
}

// Count returns the tuple count of slot (slot -1 reads the throwaway).
func (t *AggTable) Count(slot int) int64 {
	if slot < 0 {
		slot = t.sink()
	}
	return t.count[slot]
}

// Delete removes key from the table, leaving a tombstone so later probes
// still find keys that collided past it. It reports whether the key was
// present. Eager aggregation (Section III-E) deletes every build-side key
// whose probe-side tuple fails the join predicate.
func (t *AggTable) Delete(key int64) bool {
	i := hash64(uint64(key)) & t.mask
	for {
		t.Probes++
		switch t.live(i) {
		case slotEmpty:
			return false
		case slotFull:
			if t.keys[i] == key {
				t.state[i] = slotTombstone
				t.valid[i] = 0
				t.count[i] = 0
				t.initRow(int(i))
				t.len--
				return true
			}
		}
		i = (i + 1) & t.mask
	}
}

// ForEach visits every live group in slot order. Groups whose validity flag
// was never set (possible only under value masking) are skipped unless
// includeInvalid is true.
func (t *AggTable) ForEach(includeInvalid bool, fn func(key int64, slot int)) {
	for i := range t.keys {
		if t.live(uint64(i)) == slotFull && (includeInvalid || t.valid[i] != 0) {
			fn(t.keys[i], i)
		}
	}
}

// rehash moves the table to a fresh array of the given power-of-two
// capacity, re-inserting every live group of the current generation.
func (t *AggTable) rehash(capacity int) {
	old := *t
	t.cur = 1
	t.alloc(capacity)
	t.len = 0
	t.used = 0
	copy(t.Throwaway, old.Throwaway)
	t.count[t.sink()] = old.count[old.sink()]
	t.valid[t.sink()] = old.valid[old.sink()]
	for i := range old.keys {
		if old.live(uint64(i)) != slotFull {
			continue
		}
		j := t.Lookup(old.keys[i])
		copy(t.accs[j*t.nAccs:(j+1)*t.nAccs], old.accs[i*old.nAccs:(i+1)*old.nAccs])
		t.count[j] = old.count[i]
		t.valid[j] = old.valid[i]
	}
}
