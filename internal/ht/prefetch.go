package ht

// Software prefetch for the random-access loops. Go exposes no prefetch
// intrinsic, so the kernels touch the target cache line with a real load a
// tunable distance ahead of its use; the out-of-order window then overlaps
// the miss with the work in between. Each Touch returns the loaded bytes
// folded to a uint64 — callers must accumulate it into a live sink (a
// per-worker field) so the compiler cannot eliminate the loads (a bare
// `_ = slice[i]` compiles to only a bounds check). Returning instead of
// writing a shared sink keeps concurrent probe-side workers race-free.
//
// The touch targets are home slots: linear probing means a displaced key
// still starts its chain on the touched line, and at the ≤¾ load factors
// the tables run at, most probes end there too.

// PrefetchDist is the lookahead distance, in elements, between a touch and
// the probe/scatter that uses the line. Large enough to cover a DRAM miss
// (~100ns) with the ~10ns of work per element between them, small enough
// that touched lines survive in L1. Variable, not constant, so experiments
// can tune it; kernels read it once per tile.
var PrefetchDist = 12

// PrefetchMinBytes is the smallest table footprint the touch-lookahead
// loops bother prefetching. Below it the table lives in the fast cache
// levels, a probe's home line is a hit anyway, and the touch is pure
// extra hash-and-load work. Variable for experiments, like PrefetchDist.
var PrefetchMinBytes = 8 << 20

// Touch loads key's home cache lines (key, epoch and state arrays) ahead
// of a Lookup/Find/Add on the same key. The caller accumulates the return
// value into a live sink.
func (t *AggTable) Touch(key int64) uint64 {
	if key == NullKey {
		return 0
	}
	i := hash64(uint64(key)) & t.mask
	return uint64(t.keys[i]) + uint64(t.epoch[i]) + uint64(t.state[i])
}

// NextLive returns the first slot at or after i holding a live group, or
// -1 when none remain. Groups whose validity flag is unset are skipped
// unless includeInvalid. Together with Key it lets callers walk the table
// with a lookahead cursor, which ForEach's callback shape cannot express.
func (t *AggTable) NextLive(i int, includeInvalid bool) int {
	for ; i < len(t.keys); i++ {
		if t.live(uint64(i)) == slotFull && (includeInvalid || t.valid[i] != 0) {
			return i
		}
	}
	return -1
}

// Key returns the group key in slot (which must be live).
func (t *AggTable) Key(slot int) int64 { return t.keys[slot] }

// mergeRing bounds the MergeFrom lookahead window; power of two ≥ any
// sensible PrefetchDist.
const mergeRing = 32

// MergeFrom folds src's live, valid groups into dst with software
// prefetch: each group's home line in dst is touched PrefetchDist groups
// before its Lookup, so the DRAM misses of an out-of-cache destination
// overlap instead of serializing. Accumulators are added pairwise and the
// destination count is bumped once per source group — exactly the fold the
// per-worker merge loops perform. It returns the number of groups merged.
// Single-owner: dst and src must not be concurrently accessed.
func (dst *AggTable) MergeFrom(src *AggTable) uint64 {
	d := PrefetchDist
	if d < 1 {
		d = 1
	}
	if d > mergeRing-1 {
		d = mergeRing - 1
	}
	var ring [mergeRing]int32
	var sink uint64
	lead := src.NextLive(0, false)
	lag, queued := 0, 0
	for lead >= 0 && queued < d {
		sink += dst.Touch(src.keys[lead])
		ring[(lag+queued)&(mergeRing-1)] = int32(lead)
		queued++
		lead = src.NextLive(lead+1, false)
	}
	accs := min(src.nAccs, dst.nAccs)
	var merged uint64
	for queued > 0 {
		s := int(ring[lag&(mergeRing-1)])
		lag++
		queued--
		if lead >= 0 {
			sink += dst.Touch(src.keys[lead])
			ring[(lag+queued)&(mergeRing-1)] = int32(lead)
			queued++
			lead = src.NextLive(lead+1, false)
		}
		j := dst.Lookup(src.keys[s])
		for a := 0; a < accs; a++ {
			dst.Add(j, a, src.accs[s*src.nAccs+a])
		}
		merged++
	}
	dst.pf += sink
	return merged
}

// FoldPairs aggregates a chunk of (key, value) pairs into accumulator 0 —
// the phase-2 radix fold. When the table's footprint is past
// PrefetchMinBytes, each key's home line is touched PrefetchDist pairs
// ahead of its Lookup so the probe misses overlap; a cache-resident table
// (the usual radix sub-table case) takes the plain loop instead. It
// returns the number of pairs folded with the lookahead (0 for the plain
// loop), which callers tally as their prefetched-probe count.
// Single-owner: the table must not be concurrently accessed.
func (t *AggTable) FoldPairs(keys, vals []int64) int {
	n := len(keys)
	if len(t.keys)*t.SlotBytes() < PrefetchMinBytes {
		if t.nAccs == 1 {
			// The dominant shape (one sum accumulator) folds with the slot
			// bookkeeping inlined: no accumulator indexing, no acc==0
			// branch per pair.
			for i := 0; i < n; i++ {
				j := t.Lookup(keys[i])
				if j < 0 {
					j = t.sink()
				}
				t.accs[j] += vals[i]
				t.count[j]++
				t.valid[j] = 1
			}
			return 0
		}
		for i := 0; i < n; i++ {
			t.Add(t.Lookup(keys[i]), 0, vals[i])
		}
		return 0
	}
	d := PrefetchDist
	var sink uint64
	for j := 0; j < d && j < n; j++ {
		sink += t.Touch(keys[j])
	}
	for i := 0; i < n; i++ {
		if i+d < n {
			sink += t.Touch(keys[i+d])
		}
		t.Add(t.Lookup(keys[i]), 0, vals[i])
	}
	t.pf += sink
	return n
}

// Touch loads key's home cache lines ahead of a Probe/Insert. The caller
// accumulates the return value into a live sink.
func (t *JoinTable) Touch(key int64) uint64 {
	i := hash64(uint64(key)) & t.mask
	return uint64(t.keys[i]) + uint64(t.epoch[i]) + uint64(t.state[i])
}

// Touch loads key's home cache lines in its partition's sub-table ahead of
// a Probe.
func (t *PartitionedJoinTable) Touch(key int64) uint64 {
	return t.subs[hash64(uint64(key))>>t.shift].Touch(key)
}

// TouchAppend loads the scatter-write target for key's partition: the tail
// chunk slot the next Append to that partition will store into. When the
// tail chunk is full (the next append claims a fresh chunk) there is no
// known target and the touch is skipped. The caller accumulates the return
// value into a live sink.
func (p *Partitioner) TouchAppend(key int64) uint64 {
	i := hash64(uint64(key)) >> p.shift
	if o := p.off[i]; o < p.lim[i] {
		return uint64(p.pool.keys[o])
	}
	return 0
}
