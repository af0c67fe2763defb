package core

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"github.com/reprolab/swole/internal/bitmap"
	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/ht"
	"github.com/reprolab/swole/internal/storage"
	"github.com/reprolab/swole/internal/vec"
)

// The execution side of PreparedSelect: one generic tile pipeline that
// every synthesized statement runs through, specialized per tile rather
// than per statement shape.
//
//	edge bitmaps  each filtered join edge evaluates its predicate over the
//	              parent table into a positional bitmap (morsel-parallel)
//	OR terms      under the term-bitmap disjunction strategy, each term ORs
//	              into the root bitmap (morsel-parallel, term at a time)
//	main scan     per tile: root predicate → edge positions and bitmap
//	              bits → gather → residual → keys → aggregates
//	merge         worker partials fold into worker 0's, then HAVING,
//	              projection and the sorted result
//
// Within a tile the qualifying density picks the access pattern — the
// paper's masking-versus-pushdown choice, made per tile from a popcount:
// at or above half the lanes the tile stays dense (every referenced
// column is widened or positionally gathered for every lane, and rejected
// lanes are masked: keys to ht.NullKey, scalar values to zero); below it
// the tile is compacted through a selection vector first and only the
// qualifying lanes are gathered and evaluated.

// denseTile reports whether a tile with ones of n lanes qualifying is
// evaluated masked (dense) rather than compacted.
func denseTile(ones, n int) bool { return 2*ones >= n }

// selectRun is a PreparedSelect's run-owned state, guarded by the
// engine's execution lock: the prebuilt morsel kernels, the borrowed
// worker scratch of the current run, and the reused result buffers.
type selectRun struct {
	kEdge, kTerm, kMain kernelFn
	curEdge             *boundEdge
	curTerm             expr.Expr
	rootBM              *bitmap.Bitmap
	ws                  []*selWorker

	order  []int64 // merged group keys in output order
	outRow []int64
	flat   []int64
	res    SelectResult
}

// selWorker is one morsel worker's scratch for the generic pipeline. The
// engine keeps one per gang worker (Engine.selWorkersLocked) and lends
// them to whichever plan is running, so cached plans hold no per-worker
// state and memory follows the worker count, not the plan-cache size.
type selWorker struct {
	ev  *expr.Evaluator
	ctr *vec.Counters

	cmp   []byte
	mask  []byte
	sel   []int32
	pos   [maxSelectEdges][]int32
	vecs  [][]int64 // gathered column buffers
	cols  [][]int64 // joined-row field -> gathered column, per run
	keys  []int64
	slots []int32

	// Aggregate arguments: argBufs are their output buffers, argv the
	// evaluated vectors of a grouped tile (which may alias gathered
	// columns, and are all live while the tile folds), sumVals the sum
	// accumulators' inputs.
	argBufs [][]int64
	argv    [][]int64
	sumVals [][]int64

	tab    *ht.AggTable
	acc    []int64 // scalar accumulators
	count  int64   // scalar qualifying-row count
	passed int     // rows past the root filter and edge bitmaps

	// Hashed group keys: composite key bytes -> worker-local group id,
	// with each id's key tuple stored at tuples[id*len(keys):].
	ids    map[string]int64
	tuples []int64
	kb     []byte
}

func newSelWorker() *selWorker {
	s := &selWorker{
		ev:    expr.NewEvaluator(),
		ctr:   &vec.Counters{},
		cmp:   make([]byte, vec.TileSize),
		mask:  make([]byte, vec.TileSize),
		sel:   make([]int32, vec.TileSize),
		keys:  make([]int64, vec.TileSize),
		slots: make([]int32, vec.TileSize),
		ids:   map[string]int64{},
	}
	for i := range s.pos {
		s.pos[i] = make([]int32, vec.TileSize)
	}
	s.ev.SetCounters(s.ctr)
	return s
}

// selWorkersLocked returns the engine's n pooled select workers, creating
// missing ones, and the number created (Explain.FreshAllocs). Callers
// hold e.execMu for as long as they use the workers.
func (e *Engine) selWorkersLocked(n int) ([]*selWorker, int) {
	fresh := 0
	for len(e.selPool) < n {
		e.selPool = append(e.selPool, newSelWorker())
		fresh++
	}
	return e.selPool[:n], fresh
}

// prepare readies a borrowed worker for one run of p: gathered-column
// buffers for p's fields, an emptied aggregation table with p's
// accumulator rules, zeroed scalar partials, and empty key dictionaries.
func (s *selWorker) prepare(p *PreparedSelect) int {
	fresh := 0
	for len(s.vecs) < len(p.gather) {
		s.vecs = append(s.vecs, make([]int64, vec.TileSize))
	}
	s.cols = growSlice(s.cols, len(p.rowFields))
	for i, g := range p.gather {
		s.cols[g.at] = s.vecs[i]
	}
	for len(s.argBufs) < len(p.args) {
		s.argBufs = append(s.argBufs, make([]int64, vec.TileSize))
	}
	s.argv = growSlice(s.argv, len(p.args))
	s.sumVals = growSlice(s.sumVals, len(p.sumAccs))
	s.passed, s.count = 0, 0
	s.ctr.Reset()
	s.acc = growSlice(s.acc, len(p.accs))
	for i, a := range p.accs {
		s.acc[i] = 0
		switch a.op {
		case ht.AccMin:
			s.acc[i] = vec.MinIdentity
		case ht.AccMax:
			s.acc[i] = vec.MaxIdentity
		}
	}
	if len(p.keys) > 0 {
		if s.tab == nil {
			s.tab = ht.NewAggTable(len(p.accs), 0)
			fresh++
		}
		s.tab.SetOps(p.accOps)
		clear(s.ids)
		s.tuples = s.tuples[:0]
	}
	return fresh
}

// bindKernels builds the plan's morsel kernels once, as method values
// that read the plan's current fields, so runs allocate no closures.
func (p *PreparedSelect) bindKernels() {
	p.kEdge = p.edgeMorsel
	p.kTerm = p.termMorsel
	p.kMain = p.mainMorsel
}

// RunContext executes the plan on the engine's worker gang. Workers poll
// ctx at morsel granularity; a canceled run returns ctx's error and the
// plan's next run starts from clean state. The result is owned by the
// plan and overwritten by its next run.
func (p *PreparedSelect) RunContext(ctx context.Context) (*SelectResult, Explain, error) {
	e := p.e
	e.execMu.Lock()
	defer e.execMu.Unlock()

	ex := p.ex
	ws, fresh := e.selWorkersLocked(p.nw)
	for _, s := range ws {
		fresh += s.prepare(p)
	}
	p.ws = ws
	defer func() { p.ws = nil }()
	gang := e.steadyLocked(p.nw)
	grows0 := p.tableGrows()
	start := time.Now()

	// Edge bitmaps, then (term-bitmap strategy) the root disjunction.
	for i := range p.edges {
		be := &p.edges[i]
		if be.bm == nil {
			continue
		}
		be.bm.Reset(be.parent.Rows())
		p.curEdge = be
		gang.RunCtx(ctx, be.parent.Rows(), p.kEdge)
		if err := ctxErr(ctx); err != nil {
			return nil, ex, err
		}
	}
	rows := p.root.Rows()
	if p.rootBM != nil {
		p.rootBM.Reset(rows)
		for _, term := range p.terms {
			p.curTerm = term
			gang.RunCtx(ctx, rows, p.kTerm)
			if err := ctxErr(ctx); err != nil {
				return nil, ex, err
			}
		}
	}
	p.curEdge, p.curTerm = nil, nil

	gang.RunCtx(ctx, rows, p.kMain)
	if err := ctxErr(ctx); err != nil {
		return nil, ex, err
	}
	ex.ScanTime = time.Since(start)

	mergeStart := time.Now()
	passed := 0
	for _, s := range ws {
		passed += s.passed
		ex.Variants.Add(s.ctr)
		s.ctr.Reset()
	}
	ex.HTGrows = int(p.tableGrows() - grows0)
	if len(p.keys) == 0 {
		p.finishScalar()
	} else {
		p.finishGrouped()
	}
	ex.MergeTime = time.Since(mergeStart)
	if rows > 0 {
		ex.Selectivity = float64(passed) / float64(rows)
	}
	ex.Groups = len(p.res.Rows)
	ex.FreshAllocs = fresh
	return &p.res, ex, nil
}

// tableGrows sums the growth counters of the borrowed workers' tables.
func (p *PreparedSelect) tableGrows() uint64 {
	var g uint64
	for _, s := range p.ws {
		if s.tab != nil {
			g += s.tab.Grows
		}
	}
	return g
}

// edgeMorsel evaluates the current edge's parent-side predicate into its
// positional bitmap. Morsels are tile multiples, so no two workers write
// the same bitmap word.
func (p *PreparedSelect) edgeMorsel(w, base, length int) {
	s, be := p.ws[w], p.curEdge
	for b, end := base, base+length; b < end; b += vec.TileSize {
		n := min(vec.TileSize, end-b)
		s.ev.EvalBool(be.filter, b, n, s.cmp)
		be.bm.SetFromCmp(b, s.cmp[:n])
	}
}

// termMorsel ORs the current disjunct into the root bitmap, skipping tiles
// earlier terms already saturated.
func (p *PreparedSelect) termMorsel(w, base, length int) {
	s := p.ws[w]
	for b, end := base, base+length; b < end; b += vec.TileSize {
		n := min(vec.TileSize, end-b)
		if p.rootBM.RangeAllSet(b, n) {
			continue
		}
		s.ev.EvalBool(p.curTerm, b, n, s.cmp)
		p.rootBM.OrFromCmp(b, s.cmp[:n])
	}
}

// selectFault, when set, runs at the start of every main-scan morsel on
// the worker that claimed it (SetSelectFaultHook).
var selectFault atomic.Pointer[func()]

// SetSelectFaultHook installs f to run at the start of every generic
// Select main-scan morsel, on the worker goroutine; nil removes it. It
// exists for fault-injection tests of how a worker panic is contained.
func SetSelectFaultHook(f func()) {
	if f == nil {
		selectFault.Store(nil)
		return
	}
	selectFault.Store(&f)
}

// mainMorsel runs the main scan over one morsel, a tile at a time.
func (p *PreparedSelect) mainMorsel(w, base, length int) {
	if f := selectFault.Load(); f != nil {
		(*f)()
	}
	s := p.ws[w]
	for b, end := base, base+length; b < end; b += vec.TileSize {
		p.tile(s, b, min(vec.TileSize, end-b))
	}
}

// tile is the per-tile pipeline. The lanes it hands to the row stage are
// either all n tile lanes with cmp marking the qualifying ones (dense) or
// the m qualifying lanes, compacted, all of which qualify; a residual
// then narrows either form through s.mask.
func (p *PreparedSelect) tile(s *selWorker, base, n int) {
	cmp := s.cmp[:n]
	switch {
	case p.rootBM != nil:
		p.rootBM.ReadCmp(base, cmp)
	case p.spec.Filter != nil:
		s.ev.EvalBool(p.spec.Filter, base, n, cmp)
	default:
		vec.Fill(cmp, 1)
	}
	ones := vec.CountOnes(cmp)
	if ones == 0 {
		return
	}
	dense := denseTile(ones, n)
	m := n
	if dense {
		// Resolve every lane's parent rows and AND the edge bitmaps in;
		// if that leaves the tile sparse, compact it after all.
		for i := range p.edges {
			p.resolveEdge(s, i, base, nil, n)
		}
		if p.anyEdgeBitmap() {
			ones = vec.CountOnes(cmp)
			if ones == 0 {
				return
			}
			if !denseTile(ones, n) {
				dense = false
				m = p.compact(s, cmp)
				for i := range p.edges {
					pos := s.pos[i]
					for j, l := range s.sel[:m] {
						pos[j] = pos[l]
					}
				}
			}
		}
	} else {
		m = p.compact(s, cmp)
		for i := range p.edges {
			p.resolveEdge(s, i, base, s.sel[:m], m)
		}
		m = p.filterCompacted(s, m)
		if m == 0 {
			return
		}
	}
	if dense {
		s.passed += ones
	} else {
		s.passed += m
	}

	// Gather every referenced column once for the row stage.
	for i, g := range p.gather {
		out := s.vecs[i]
		switch {
		case g.src >= 0:
			g.col.GatherInto(s.pos[g.src][:m], out)
		case dense:
			g.col.WidenInto(base, n, out)
			s.ctr.Widen[int(g.col.Kind)]++
		default:
			g.col.GatherSelInto(base, s.sel[:m], out)
		}
	}

	// The lane mask: dense tiles carry the filter's; compacted tiles pass
	// every lane unless a residual rejects some.
	var mask []byte
	if dense {
		mask = cmp
		if ones == n {
			mask = nil
		}
	}
	if r := p.spec.Residual; r != nil {
		rm := s.mask[:m]
		s.ev.RowBool(r, s.cols, m, rm)
		if mask != nil {
			vec.And(rm, mask)
		}
		mask = rm
	}

	if len(p.keys) == 0 {
		p.foldScalar(s, m, mask)
	} else {
		p.foldGrouped(s, m, mask)
	}
}

// anyEdgeBitmap reports whether some join edge carries a filter bitmap.
func (p *PreparedSelect) anyEdgeBitmap() bool {
	for i := range p.edges {
		if p.edges[i].bm != nil {
			return true
		}
	}
	return false
}

// compact builds the tile's selection vector from cmp.
func (p *PreparedSelect) compact(s *selWorker, cmp []byte) int {
	m, d := vec.SelFromCmpAdaptive(cmp, s.sel)
	s.ctr.CountSel(d)
	return m
}

// resolveEdge fills edge i's parent positions for the tile's lanes — all
// n from base when sel is nil, else the selected ones — and, for a
// dense tile, ANDs the edge's bitmap bits into the tile's cmp.
func (p *PreparedSelect) resolveEdge(s *selWorker, i, base int, sel []int32, n int) {
	be := &p.edges[i]
	pos := s.pos[i][:n]
	switch {
	case be.src >= 0:
		src := s.pos[be.src][:n]
		for j, r := range src {
			pos[j] = be.idx.Pos[r]
		}
	case sel == nil:
		copy(pos, be.idx.Pos[base:base+n])
	default:
		fk := be.idx.Pos[base:]
		for j, l := range sel {
			pos[j] = fk[l]
		}
	}
	if be.bm != nil && sel == nil {
		cmp := s.cmp[:n]
		for j, r := range pos {
			cmp[j] &= be.bm.TestBit(int(r))
		}
	}
}

// filterCompacted drops compacted lanes whose parent rows fail an edge
// bitmap, keeping the selection vector and every edge's positions
// aligned, and returns the surviving lane count.
func (p *PreparedSelect) filterCompacted(s *selWorker, m int) int {
	if !p.anyEdgeBitmap() {
		return m
	}
	k := 0
	for j := 0; j < m; j++ {
		ok := byte(1)
		for i := range p.edges {
			if bm := p.edges[i].bm; bm != nil {
				ok &= bm.TestBit(int(s.pos[i][j]))
			}
		}
		s.sel[k] = s.sel[j]
		for i := range p.edges {
			s.pos[i][k] = s.pos[i][j]
		}
		k += int(ok)
	}
	return k
}

// foldScalar value-masks the tile's aggregate arguments into the worker's
// scalar accumulators (mask nil: every lane qualifies).
func (p *PreparedSelect) foldScalar(s *selWorker, m int, mask []byte) {
	if mask == nil {
		s.count += int64(m)
	} else {
		s.count += int64(vec.CountOnes(mask))
		s.ctr.MaskedAgg++
	}
	for ai, arg := range p.args {
		v := s.ev.RowInt(arg, s.cols, m, s.argBufs[ai])
		for ci, a := range p.accs {
			if a.arg != ai {
				continue
			}
			switch a.op {
			case ht.AccMin:
				s.acc[ci] = min(s.acc[ci], minMasked(v, mask))
			case ht.AccMax:
				s.acc[ci] = max(s.acc[ci], maxMasked(v, mask))
			default:
				if mask == nil {
					s.acc[ci] += vec.SumAllU(v)
				} else {
					s.acc[ci] += vec.SumMaskedU(v, mask)
				}
			}
		}
	}
}

func minMasked(v []int64, mask []byte) int64 {
	if mask != nil {
		return vec.MinMasked(v, mask)
	}
	best := vec.MinIdentity
	for _, x := range v {
		best = min(best, x)
	}
	return best
}

func maxMasked(v []int64, mask []byte) int64 {
	if mask != nil {
		return vec.MaxMasked(v, mask)
	}
	best := vec.MaxIdentity
	for _, x := range v {
		best = max(best, x)
	}
	return best
}

// foldGrouped builds the tile's group keys — packed or hashed, key-masked
// to ht.NullKey on rejected lanes — resolves them to slots of the
// worker's table, and folds each aggregate argument a tile at a time.
func (p *PreparedSelect) foldGrouped(s *selWorker, m int, mask []byte) {
	keys := s.keys[:m]
	if p.packed {
		for f, k := range p.keys {
			v := s.cols[k.at][:m]
			if f == 0 {
				for i := range keys {
					keys[i] = (v[i] - k.lo) << k.shift
				}
				continue
			}
			for i := range keys {
				keys[i] |= (v[i] - k.lo) << k.shift
			}
		}
		if mask != nil {
			vec.MaskKeysU(keys, mask, ht.NullKey, keys)
			s.ctr.KeyMask++
		}
	} else {
		p.hashKeys(s, keys, mask)
	}
	slots := s.slots[:m]
	s.tab.Slots(keys, slots)
	for ai, arg := range p.args {
		s.argv[ai] = s.ev.RowInt(arg, s.cols, m, s.argBufs[ai])
	}
	for ci, a := range p.accs {
		if a.op != ht.AccSum {
			s.tab.FoldSlots(slots, ci, s.argv[a.arg])
		}
	}
	for k, ci := range p.sumAccs {
		s.sumVals[k] = s.argv[p.accs[ci].arg]
	}
	s.tab.SumRows(slots, p.sumAccs, s.sumVals)
}

// hashKeys maps each qualifying lane's composite key to a worker-local
// group id through the worker's dictionary, recording each new id's key
// tuple; rejected lanes get ht.NullKey.
func (p *PreparedSelect) hashKeys(s *selWorker, keys []int64, mask []byte) {
	for i := range keys {
		if mask != nil && mask[i] == 0 {
			keys[i] = ht.NullKey
			continue
		}
		s.kb = s.kb[:0]
		for _, k := range p.keys {
			v := uint64(s.cols[k.at][i])
			s.kb = append(s.kb, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		id, ok := s.ids[string(s.kb)]
		if !ok {
			id = int64(len(s.ids))
			s.ids[string(s.kb)] = id
			for _, k := range p.keys {
				s.tuples = append(s.tuples, s.cols[k.at][i])
			}
		}
		keys[i] = id
	}
}

// finishScalar merges the workers' scalar partials into the one output
// row (a scalar aggregation over zero rows still produces it).
func (p *PreparedSelect) finishScalar() {
	w0 := p.ws[0]
	for _, s := range p.ws[1:] {
		w0.count += s.count
		for ci, a := range p.accs {
			switch a.op {
			case ht.AccMin:
				w0.acc[ci] = min(w0.acc[ci], s.acc[ci])
			case ht.AccMax:
				w0.acc[ci] = max(w0.acc[ci], s.acc[ci])
			default:
				w0.acc[ci] += s.acc[ci]
			}
		}
	}
	p.beginResult()
	p.emit(w0.acc, w0.count)
	p.endResult()
}

// finishGrouped merges the workers' tables into worker 0's (translating
// hashed group ids through worker 0's dictionary), orders the groups by
// key, and emits them.
func (p *PreparedSelect) finishGrouped() {
	w0 := p.ws[0]
	t0 := w0.tab
	for _, s := range p.ws[1:] {
		if p.packed {
			t0.Merge(s.tab)
			continue
		}
		width := len(p.keys)
		s.tab.ForEach(true, func(id int64, slot int) {
			tuple := s.tuples[int(id)*width : int(id+1)*width]
			w0.kb = w0.kb[:0]
			for _, v := range tuple {
				u := uint64(v)
				w0.kb = append(w0.kb, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
					byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
			}
			gid, ok := w0.ids[string(w0.kb)]
			if !ok {
				gid = int64(len(w0.ids))
				w0.ids[string(w0.kb)] = gid
				w0.tuples = append(w0.tuples, tuple...)
			}
			t0.MergeGroup(gid, s.tab, slot)
		})
	}
	p.order = p.order[:0]
	t0.ForEach(false, func(key int64, _ int) { p.order = append(p.order, key) })
	if p.packed {
		slices.Sort(p.order)
	} else {
		width := len(p.keys)
		tuples := w0.tuples
		slices.SortFunc(p.order, func(a, b int64) int {
			return slices.Compare(tuples[int(a)*width:int(a+1)*width], tuples[int(b)*width:int(b+1)*width])
		})
	}
	p.beginResult()
	nk := len(p.keys)
	accs := w0.acc[:len(p.accs)]
	for _, key := range p.order {
		slot := t0.Find(key)
		for i, k := range p.keys {
			if p.packed {
				p.outRow[i] = (key>>k.shift)&k.mask + k.lo
			} else {
				p.outRow[i] = w0.tuples[int(key)*nk+i]
			}
		}
		for ci := range accs {
			accs[ci] = t0.Acc(slot, ci)
		}
		p.emit(accs, t0.Count(slot))
	}
	p.endResult()
}

// beginResult sizes the output row and empties the result buffers.
func (p *PreparedSelect) beginResult() {
	p.outRow = growSlice(p.outRow, len(p.outFields))
	p.flat = p.flat[:0]
}

// emit finalizes one group's aggregates into the output row (after its
// group keys), applies HAVING, and appends the projected row.
func (p *PreparedSelect) emit(accs []int64, count int64) {
	nk := len(p.keys)
	for i, a := range p.spec.Aggs {
		v := count
		if ci := p.aggAcc[i]; ci >= 0 {
			v = accs[ci]
		}
		switch a.Kind {
		case AggAvg:
			v = 0
			if count != 0 {
				v = accs[p.aggAcc[i]] * storage.DecimalOne / count
			}
		case AggMin, AggMax:
			if count == 0 {
				v = 0
			}
		}
		p.outRow[nk+i] = v
	}
	if p.spec.Having != nil && expr.EvalRow(p.spec.Having, p.outRow) == 0 {
		return
	}
	for i := range p.spec.Project {
		p.flat = append(p.flat, expr.EvalRow(p.spec.Project[i].Expr, p.outRow))
	}
}

// endResult slices the flat result buffer into rows.
func (p *PreparedSelect) endResult() {
	w := len(p.spec.Project)
	p.res.Fields = p.resFields
	p.res.Rows = p.res.Rows[:0]
	for off := 0; off < len(p.flat); off += w {
		p.res.Rows = append(p.res.Rows, p.flat[off:off+w:off+w])
	}
}
