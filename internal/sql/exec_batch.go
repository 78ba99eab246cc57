package sql

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"madlib/internal/engine"
)

// The aggregate executor. Every planned aggregate query carries one
// batchAggLane and runs it through engine.RunBatched: the WHERE kernel
// filters each batch into a selection vector, the group keys fill a key
// lane that resolves to dense group ids, and one batchAggSpec per
// aggregate call folds the survivors into its column of per-group
// states. A built-in call's spec folds an argument lane into its
// aggregate's one accumulator (aggregate.go); the lane is made by the
// argument's native kernel or, where compile_batch.go has none (and
// always in oracle mode), by its row closure run over the selection.
// A morsel's rows fold in row order and morsel states merge in
// (segment, offset) order, so the two lowerings are bit-identical.
//
// Errors follow one rule on both: a failing consumer aborts its
// morsel, and the statement reports the first failure by morsel, then
// by batch within the morsel, then by consumer — the WHERE clause
// before the aggregate slots, slots in SELECT order — then by row.
// Registered madlib aggregates fold whole rows through their own
// transition and keep their errors in their state until final.

// laneEval evaluates an expression over the selected rows of a batch:
// one value per selected row, in row order.
type laneEval[T any] func(e *batchEval, b engine.ColBatch, sel selVec) ([]T, error)

// kernelLane runs a column kernel over the selection into a scratch
// lane.
func kernelLane[T any](k func(*batchEval, engine.ColBatch, selVec, []T) error, scratch func(*batchEval, int) []T) laneEval[T] {
	return func(e *batchEval, b engine.ColBatch, sel selVec) ([]T, error) {
		out := scratch(e, len(sel))
		if err := k(e, b, sel, out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// projItem is one projected expression — a SELECT item, an ORDER BY key
// over the input row, a window PARTITION BY / ORDER BY key — lowered for
// the batch executor. Natively it is a typed lane evaluator plus (for
// possibly-NULL items) a validity evaluator: the item evaluates once per
// batch over the surviving selection and appends the lane to its result
// column. Expressions with no batch kernel (Vector columns, $n
// arithmetic, madlib calls) carry their compiled row closure in rowFn
// instead and append one boxed value per selected row.
type projItem struct {
	evalF laneEval[float64]
	evalI laneEval[int64]
	evalS laneEval[string]
	evalB laneEval[bool]
	// validE, when non-nil, marks a possibly-NULL item: its validity lane
	// rides beside the value lane (false is the row closure's NULL).
	validE laneEval[bool]
	rowFn  anyFn
	// kind is the item's static result kind, ckAny when only its values
	// tell ($n, NULL-padded LEFT JOIN columns).
	kind ckind
	// safe reports an item that cannot fail, a bare column: it may be
	// evaluated late, over fewer rows than the selection.
	safe bool
}

// buildProjItem lowers one projected expression to its native columnar
// form; ok=false leaves it to its row closure.
func buildProjItem(expr Expr, bc *batchCompiler) (*projItem, bool) {
	c, ok := compileBatchExpr(expr, bc)
	if !ok || c.scalar != nil {
		return nil, false
	}
	pi := &projItem{}
	switch c.kind {
	case ckFloat:
		pi.evalF = kernelLane(c.f, bc.floatLane())
	case ckInt:
		pi.evalI = kernelLane(c.i, bc.intLane())
	case ckStr:
		pi.evalS = kernelLane(c.s, bc.strLane())
	case ckBool:
		pi.evalB = kernelLane(c.b, bc.boolLane())
	default:
		return nil, false
	}
	if c.valid != nil {
		pi.validE = kernelLane(c.valid, bc.boolLane())
	}
	return pi, true
}

// appendTo evaluates the item over sel and appends the values to dst,
// the item's column of a result chunk. batches is how many more batches
// (this one included) will append to dst: a lane that has to grow is
// sized for as many survivors from each of them, which is exact for the
// dense runs a range predicate keeps and small for a sparse filter.
func (pi *projItem) appendTo(e *batchEval, b engine.ColBatch, sel selVec, dst *chunkCol, batches int) error {
	if pi.rowFn != nil {
		dst.kind, dst.boxed = ckAny, reserve(dst.boxed, len(sel), batches)
		for _, idx := range sel {
			v, err := pi.rowFn(b.Row(int(idx)), e.env)
			if err != nil {
				return err
			}
			dst.boxed = append(dst.boxed, v)
		}
		return nil
	}
	v, err := pi.view(e, b, sel)
	if err != nil {
		return err
	}
	dst.appendLane(&v, batches)
	return nil
}

// view evaluates a native item over sel into a lane over the kernels'
// scratch, which the caller may cut in place; it is valid until the
// morsel's next batch.
func (pi *projItem) view(e *batchEval, b engine.ColBatch, sel selVec) (v chunkCol, err error) {
	if pi.validE != nil {
		if v.valid, err = pi.validE(e, b, sel); err != nil {
			return v, err
		}
	}
	switch {
	case pi.evalF != nil:
		v.kind = ckFloat
		v.floats, err = pi.evalF(e, b, sel)
	case pi.evalI != nil:
		v.kind = ckInt
		v.ints, err = pi.evalI(e, b, sel)
	case pi.evalS != nil:
		v.kind = ckStr
		v.strs, err = pi.evalS(e, b, sel)
	case pi.evalB != nil:
		v.kind = ckBool
		v.bools, err = pi.evalB(e, b, sel)
	}
	return v, err
}

// appendLane appends the rows of src, a typed lane, to dst, growing dst
// as appendTo does.
func (dst *chunkCol) appendLane(src *chunkCol, batches int) {
	dst.kind = src.kind
	if src.valid != nil {
		dst.valid = append(reserve(dst.valid, len(src.valid), batches), src.valid...)
	}
	switch src.kind {
	case ckFloat:
		dst.floats = append(reserve(dst.floats, len(src.floats), batches), src.floats...)
	case ckInt:
		dst.ints = append(reserve(dst.ints, len(src.ints), batches), src.ints...)
	case ckStr:
		dst.strs = append(reserve(dst.strs, len(src.strs), batches), src.strs...)
	case ckBool:
		dst.bools = append(reserve(dst.bools, len(src.bools), batches), src.bools...)
	}
}

// reserve returns lane with room for n more values, growing it to hold
// n values from each of batches batches when it has to grow.
func reserve[T any](lane []T, n, batches int) []T {
	if cap(lane)-len(lane) >= n {
		return lane
	}
	return append(make([]T, 0, len(lane)+n*batches), lane...)
}

// batchesLeft is the number of batches its morsel still has to deliver,
// b included: a short batch ends its morsel, a full one may be followed
// by up to the rest of engine.MorselRows. It is read off the engine's
// morsel alignment and used as a hint (lane sizing, early scratch
// reuse) — an overestimate costs capacity, never rows — and to find a
// morsel's last batch: morsels start at multiples of MorselRows within
// a segment, so it is 1 on at most one batch of a morsel, its last.
func batchesLeft(b engine.ColBatch) int {
	if b.Len() < engine.BatchSize {
		return 1
	}
	return (engine.MorselRows - b.Offset()%engine.MorselRows) / engine.BatchSize
}

// newSourceBatchCompiler builds the batch compiler for a plan source,
// carrying the LEFT JOIN NULL-padding metadata when present.
func newSourceBatchCompiler(ps *planSource) *batchCompiler {
	bc := newBatchCompiler(ps.schema)
	if ps.nullable != nil {
		bc.nullable = ps.nullable
		bc.matchedIdx = ps.matchedIdx
	}
	bc.src = ps
	return bc
}

// lowering lowers the consumers of one plan's scan pipeline — the WHERE
// predicate, projected items, aggregate calls — for the batch executor.
// Each consumer type-checks through compile.go's closures first (every
// plan-time error comes from there), then takes its native batch kernel
// when compile_batch.go has one, and otherwise a kernel that calls the
// closure on each selected row. The lane is thereby decided per
// consumer, inside the operator: a plan has one executor whatever its
// expressions are. oracle (SetBatchExecution(false)) skips the native
// kernels, so the differential tests compare the two lowerings under
// one driver.
type lowering struct {
	cc     *compileCtx
	bc     *batchCompiler
	oracle bool
}

func newLowering(ps *planSource, oracle bool) *lowering {
	return &lowering{cc: ps.newCompileCtx(), bc: newSourceBatchCompiler(ps), oracle: oracle}
}

// predicate lowers a WHERE clause; a nil clause lowers to a nil kernel
// (keep every row). native reports whether the batch kernel was taken.
func (lw *lowering) predicate(where Expr) (k bBatchKernel, native bool, err error) {
	fn, err := compilePredicate(where, lw.cc)
	if err != nil || fn == nil {
		return nil, false, err
	}
	if !lw.oracle {
		if k, ok := compileBatchPredicate(where, lw.bc); ok {
			return k, true, nil
		}
	}
	return func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
		for j, idx := range sel {
			v, err := fn(b.Row(int(idx)), e.env)
			if err != nil {
				return err
			}
			out[j] = v
		}
		return nil
	}, false, nil
}

// item lowers one projected expression; rowFn is set on the result when
// the row closure was taken.
func (lw *lowering) item(e Expr) (*projItem, error) {
	c, err := compileExpr(e, lw.cc)
	if err != nil {
		return nil, err
	}
	_, safe := e.(*ColumnRef)
	if !lw.oracle {
		if pi, ok := buildProjItem(e, lw.bc); ok {
			pi.kind, pi.safe = c.kind, safe
			return pi, nil
		}
	}
	return &projItem{rowFn: c.a, kind: c.kind, safe: safe}, nil
}

// morselScratch is one morsel's kernel scratch under every batch
// executor: the lanes the program reserved at compile time, plus the
// predicate's output lane and the selection vector it compresses into.
type morselScratch struct {
	e       *batchEval
	predOut []bool
	selBuf  []int32
}

// morselsOut counts the morsel scratches (and aggregate morsel states)
// drawn from their plans' pools and not yet put back: zero whenever no
// statement runs, an aborted or cancelled one included.
var morselsOut atomic.Int64

// keepLane evaluates pred over the whole batch into a bool lane.
func (ms *morselScratch) keepLane(pred bBatchKernel, b engine.ColBatch) ([]bool, error) {
	if ms.predOut == nil {
		ms.predOut = make([]bool, engine.BatchSize)
		ms.selBuf = make([]int32, engine.BatchSize)
	}
	keep := ms.predOut[:b.Len()]
	return keep, pred(ms.e, b, ms.e.identSel(b.Len()), keep)
}

// filter returns the rows of b that satisfy pred as a selection vector
// (the identity selection when pred is nil).
func (ms *morselScratch) filter(pred bBatchKernel, b engine.ColBatch) (selVec, error) {
	if pred == nil {
		return ms.e.identSel(b.Len()), nil
	}
	keep, err := ms.keepLane(pred, b)
	if err != nil {
		return nil, err
	}
	// Branch-free compaction: every position is written, and the count
	// only advances past the kept ones.
	sel, n := ms.selBuf[:len(keep)], 0
	for j, ok := range keep {
		sel[n] = int32(j)
		if ok {
			n++
		}
	}
	return sel[:n], nil
}

// batchScan runs fn over every batch of a table: parallel across
// morsels, in row order within one (engine.ForEachBatchCtx's contract).
type batchScan func(fn func(morselIdx int, b engine.ColBatch) error) error

// gatherBatches is the executor of the row-producing plans (projection
// scans, the window gather): scan hands out the batches of morsels
// morsels, one scratch per morsel is drawn from prog's pool, every batch
// is filtered through pred and fn is called on the surviving selection
// with the morsel's accumulator. A morsel's batches arrive in row order
// on one worker, and the accumulators come back in (segment, offset)
// order: read in sequence they are in table order at any worker count.
func gatherBatches[T any](env *execEnv, morsels int, scan batchScan, prog *batchProg, pred bBatchKernel,
	fn func(e *batchEval, b engine.ColBatch, sel selVec, acc *T) error) ([]T, error) {
	accs := make([]T, morsels)
	scratch := make([]*morselScratch, morsels)
	defer func() {
		for _, ms := range scratch {
			if ms != nil {
				ms.e.env = nil
				prog.pool.Put(ms)
				morselsOut.Add(-1)
			}
		}
	}()
	err := scan(func(mi int, b engine.ColBatch) error {
		ms := scratch[mi]
		if ms == nil {
			if ms, _ = prog.pool.Get().(*morselScratch); ms == nil {
				ms = &morselScratch{e: prog.newEval(nil)}
			}
			morselsOut.Add(1)
			ms.e.env = env
			scratch[mi] = ms
		}
		sel, err := ms.filter(pred, b)
		if err == nil && len(sel) > 0 {
			err = fn(ms.e, b, sel, &accs[mi])
		}
		if batchesLeft(b) == 1 {
			// The morsel's last batch: the next morsel a worker claims
			// reuses this scratch instead of building its own.
			ms.e.env, scratch[mi] = nil, nil
			prog.pool.Put(ms)
			morselsOut.Add(-1)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return accs, nil
}

// batchAggLane is the compiled scan pipeline of an aggregate query: the
// scratch-slot program, the WHERE kernel (nil = keep all), one spec per
// aggregate slot (aligned with aggPlan.calls), and the grouping
// projection.
type batchAggLane struct {
	prog     *batchProg
	pred     bBatchKernel
	specs    []*batchAggSpec
	schema   engine.Schema
	groupIdx []int
	// native reports whether any consumer (the predicate or a spec) took
	// its native batch kernel; EXPLAIN's lane line reads "row" otherwise.
	native bool

	// owner[ai] is the call whose state column call ai reads: ai itself,
	// or the first call with its numCol, which alone folds and merges it.
	owner []int

	// fused, when non-nil, is specs[0] of an ungrouped single-aggregate
	// query whose argument folds straight off a raw lane (a bare column,
	// or count's): processFused replaces the select+gather+fold
	// pipeline.
	fused *batchAggSpec

	// A grouped lane fills each batch's key lane through exactly one of
	// these (bindKeyFill).
	keyFillInt func(b engine.ColBatch, sel selVec, keys []int64)
	keyFillStr func(b engine.ColBatch, sel selVec, keys []string)
}

// groupTable is one morsel's aggregate state: its groups, numbered
// densely in first-seen order, each group's key values read off its
// first row (keys, one column per GROUP BY column) and one state column
// per aggregate. An ungrouped aggregate is a table of one group with no
// key columns.
type groupTable struct {
	ints keyIndex[int64]
	strs keyIndex[string]
	keys Chunk
	cols []aggCol
	gs   []int32 // merge's scratch: t's group of each group of src
}

// batchMorselState is the aggregate executor's per-morsel state: the
// kernel scratch, the batch's key, key-hash and group-id lanes and the
// morsel's group table.
type batchMorselState struct {
	morselScratch
	groupTable
	intKeys []int64
	strKeys []string
	hs      []uint64
	ids     []int32
}

func (ln *batchAggLane) newMorselState(env *execEnv) *batchMorselState {
	st, _ := ln.prog.pool.Get().(*batchMorselState)
	if st == nil {
		st = &batchMorselState{morselScratch: morselScratch{e: ln.prog.newEval(env)}}
		st.cols = make([]aggCol, len(ln.specs))
		for i, spec := range ln.specs {
			if o := ln.owner[i]; o != i {
				st.cols[i] = st.cols[o]
			} else {
				st.cols[i] = spec.newCol()
			}
		}
		if len(ln.groupIdx) > 0 {
			st.keys.cols = make([]chunkCol, len(ln.groupIdx))
			st.ids = make([]int32, engine.BatchSize)
			st.hs = make([]uint64, engine.BatchSize)
			if ln.keyFillInt != nil {
				st.intKeys = make([]int64, engine.BatchSize)
				st.ints.rehash(64)
			} else {
				st.strKeys = make([]string, engine.BatchSize)
				st.strs.rehash(64)
			}
		}
	}
	morselsOut.Add(1)
	st.e.env = env
	if len(ln.groupIdx) == 0 {
		st.keys.n = 1
		for _, c := range st.cols {
			c.grow(1)
		}
	}
	return st
}

// releaseMorselState returns a morsel state to the pool, emptied: the
// statement's output has been boxed out of it, and the pooled scratch
// must not pin the group keys or states. A state holding more groups
// than a morsel has rows (the merged table of a high-cardinality GROUP
// BY) is dropped instead, so that no later morsel draws, clears and
// probes a statement-sized table.
func (ln *batchAggLane) releaseMorselState(st *batchMorselState) {
	morselsOut.Add(-1)
	if st.keys.n > engine.MorselRows {
		return
	}
	st.e.env = nil
	for _, lane := range st.e.as {
		clear(lane)
	}
	st.ints.reset()
	st.strs.reset()
	clear(st.strKeys)
	for _, c := range st.cols {
		c.reset()
	}
	for i := range st.keys.cols {
		clear(st.keys.cols[i].strs)
		clear(st.keys.cols[i].boxed)
	}
	st.keys.truncate(0)
	ln.prog.pool.Put(st)
}

// processUngrouped folds one batch into the morsel's one group.
func (ln *batchAggLane) processUngrouped(st *batchMorselState, b engine.ColBatch) error {
	if ln.fused != nil {
		return ln.processFused(st, b)
	}
	sel, err := st.filter(ln.pred, b)
	if err != nil || len(sel) == 0 {
		return err
	}
	for ai, spec := range ln.specs {
		if ln.owner[ai] != ai {
			continue
		}
		if err := spec.fold(st.e, b, sel, st.cols[ai], nil); err != nil {
			return err
		}
	}
	return nil
}

// processFused is the fused filter+aggregate path: evaluate the WHERE
// kernel into a bool lane (when present) and fold the aggregate's raw
// argument lane against it in one pass — no selection vector, no
// gather, no per-value closure. Only planned for ungrouped
// single-aggregate queries whose spec has a raw lane (batchAggSpec.fused).
func (ln *batchAggLane) processFused(st *batchMorselState, b engine.ColBatch) error {
	var keep []bool
	if ln.pred != nil {
		var err error
		if keep, err = st.keepLane(ln.pred, b); err != nil {
			return err
		}
	}
	return ln.fused.fused(st.e, b, keep, st.cols[0])
}

// processGrouped folds one batch into the morsel's group table: the key
// lane resolves to a lane of group ids (a new key becomes the next group
// and records its key values), then each aggregate folds its argument
// lane into its state column through the ids.
func (ln *batchAggLane) processGrouped(st *batchMorselState, b engine.ColBatch) error {
	sel, err := st.filter(ln.pred, b)
	if err != nil || len(sel) == 0 {
		return err
	}
	ids, hs := st.ids[:len(sel)], st.hs[:len(sel)]
	addKey := func(j int) { st.addKey(ln.schema, ln.groupIdx, b.Row(int(sel[j]))) }
	if ln.keyFillInt != nil {
		keys := st.intKeys[:len(sel)]
		ln.keyFillInt(b, sel, keys)
		for j, k := range keys {
			hs[j] = intHash(k)
		}
		st.ints.resolve(keys, hs, ids, addKey)
	} else {
		keys := st.strKeys[:len(sel)]
		ln.keyFillStr(b, sel, keys)
		for j, k := range keys {
			hs[j] = maphash.String(strSeed, k)
		}
		st.strs.resolve(keys, hs, ids, addKey)
	}
	// Rows whose argument is NULL still create their group; their folds
	// just skip them.
	for ai, spec := range ln.specs {
		if ln.owner[ai] != ai {
			continue
		}
		st.cols[ai].grow(st.keys.n)
		if err := spec.fold(st.e, b, sel, st.cols[ai], ids); err != nil {
			return err
		}
	}
	return nil
}

// addKey appends a new group's key values, read off its first row r.
func (t *groupTable) addKey(schema engine.Schema, groupIdx []int, r engine.Row) {
	for gi, ci := range groupIdx {
		c := &t.keys.cols[gi]
		switch schema[ci].Kind {
		case engine.Int:
			c.kind, c.ints = ckInt, append(c.ints, r.Int(ci))
		case engine.Float:
			c.kind, c.floats = ckFloat, append(c.floats, r.Float(ci))
		case engine.String:
			c.kind, c.strs = ckStr, append(c.strs, r.Str(ci))
		case engine.Bool:
			c.kind, c.bools = ckBool, append(c.bools, r.Bool(ci))
		default:
			c.kind, c.boxed = ckAny, append(c.boxed, rowValue(schema, &r, ci))
		}
	}
	t.keys.n++
}

// merge folds src, the table of a later morsel, into t: src's groups in
// their first-seen order each merge into t's group of the same key, or
// become t's next group with their key values. Merging the morsels'
// tables left to right in morsel order keeps every group's states
// merging in morsel order and its key values those of its first row.
func (ln *batchAggLane) merge(t, src *groupTable) {
	gs := slices.Grow(t.gs[:0], src.keys.n)[:src.keys.n]
	var fresh []int
	isNew := func(j int) { fresh = append(fresh, j) }
	switch {
	case len(ln.groupIdx) == 0:
		gs[0] = 0
	case ln.keyFillInt != nil:
		t.ints.resolve(src.ints.keys, src.ints.hs, gs, isNew)
	default:
		t.strs.resolve(src.strs.keys, src.strs.hs, gs, isNew)
	}
	for ai, c := range t.cols {
		if ln.owner[ai] == ai {
			c.mergeFrom(src.cols[ai], gs)
		}
	}
	if len(fresh) > 0 {
		t.keys.appendRows(&src.keys, fresh)
	}
	t.gs = gs
}

// finalize boxes each group's finals and key values once into one slot
// slab, the shared output stage's input (aggPlan.exec): group i of the
// order perm gives (first-seen order when perm is nil) holds slots
// i*w … i*w+w-1, its finals, then its key values.
func (ln *batchAggLane) finalize(t *groupTable, perm []int) ([]any, error) {
	ns, w := len(t.cols), len(t.cols)+len(ln.groupIdx)
	slots := make([]any, t.keys.n*w)
	for i := range t.keys.n {
		g, row := i, slots[i*w:(i+1)*w]
		if perm != nil {
			g = perm[i]
		}
		for ai, c := range t.cols {
			v, err := ln.specs[ai].final(c, g)
			if err != nil {
				return nil, err
			}
			row[ai] = v
		}
		for k := range ln.groupIdx {
			row[ns+k] = t.keys.value(g, k)
		}
	}
	return slots, nil
}

// execBatch drives the lane over the acquired input table (the base
// table, or a join's materialization) and returns the finalized slot
// slab and the number of groups (exactly one for ungrouped aggregates),
// in their default order, by key values.
func (p *aggPlan) execBatch(s *Session, env *execEnv, input *engine.Table) ([]any, int, error) {
	ln := p.lane
	process := ln.processGrouped
	if len(p.groupIdx) == 0 {
		process = ln.processUngrouped
	}
	// Track every morsel state so the scratch returns to the pool even
	// when a kernel errors mid-scan.
	var mu sync.Mutex
	var tracked []*batchMorselState
	newMorsel := func(int) any {
		st := ln.newMorselState(env)
		mu.Lock()
		tracked = append(tracked, st)
		mu.Unlock()
		return st
	}
	defer func() {
		for _, st := range tracked {
			ln.releaseMorselState(st)
		}
	}()
	v, err := s.db.RunBatchedCtx(env.context(), input, newMorsel,
		func(state any, b engine.ColBatch) error { return process(state.(*batchMorselState), b) },
		func(a, b any) any {
			ln.merge(&a.(*batchMorselState).groupTable, &b.(*batchMorselState).groupTable)
			return a
		})
	if err != nil {
		return nil, 0, err
	}
	t := &v.(*batchMorselState).groupTable
	var perm []int
	if len(p.groupIdx) > 0 {
		// The typed key lanes sort through ORDER BY's comparator.
		if perm, err = (sortSpec{desc: make([]bool, len(p.groupIdx)), limit: -1}).perm(s.db, &t.keys); err != nil {
			return nil, 0, err
		}
	}
	slots, err := ln.finalize(t, perm)
	return slots, t.keys.n, err
}

// bindKeyFill wires the lane's group-key projection. With typed set,
// single Int/Bool/Float columns key as int64 (floats through
// floatKeyBits) and single String columns as the string itself;
// composite keys, Vector keys and the oracle mode encode each row's key
// columns injectively into a string (appendKeyValue).
func (ln *batchAggLane) bindKeyFill(schema engine.Schema, groupIdx []int, typed bool) {
	if typed && len(groupIdx) == 1 {
		gi := groupIdx[0]
		switch schema[gi].Kind {
		case engine.Int:
			ln.keyFillInt = func(b engine.ColBatch, sel selVec, keys []int64) {
				lane := b.Ints(gi)
				if len(sel) == len(lane) {
					copy(keys, lane)
					return
				}
				for j, idx := range sel {
					keys[j] = lane[idx]
				}
			}
			return
		case engine.Bool:
			ln.keyFillInt = func(b engine.ColBatch, sel selVec, keys []int64) {
				lane := b.Bools(gi)
				for j, idx := range sel {
					if lane[idx] {
						keys[j] = 1
					} else {
						keys[j] = 0
					}
				}
			}
			return
		case engine.Float:
			ln.keyFillInt = func(b engine.ColBatch, sel selVec, keys []int64) {
				lane := b.Floats(gi)
				for j, idx := range sel {
					keys[j] = floatKeyBits(lane[idx])
				}
			}
			return
		case engine.String:
			ln.keyFillStr = func(b engine.ColBatch, sel selVec, keys []string) {
				lane := b.Strings(gi)
				for j, idx := range sel {
					keys[j] = lane[idx]
				}
			}
			return
		}
	}
	ln.keyFillStr = func(b engine.ColBatch, sel selVec, keys []string) {
		var buf []byte
		for j, idx := range sel {
			row := b.Row(int(idx))
			buf = buf[:0]
			for _, gi := range groupIdx {
				buf = appendKeyValue(buf, schema, row, gi)
			}
			keys[j] = string(buf)
		}
	}
}

// planAggLane assembles the lane from the already lowered aggregate
// specs (parallel to the plan's calls): it lowers the WHERE clause,
// binds the group-key fill and promotes ungrouped single-aggregate
// queries to the fused path.
func planAggLane(st *Select, lw *lowering, specs []*batchAggSpec, groupIdx []int) (*batchAggLane, error) {
	schema := lw.bc.schema
	ln := &batchAggLane{schema: schema, groupIdx: groupIdx, specs: specs}
	var err error
	if ln.pred, ln.native, err = lw.predicate(st.Where); err != nil {
		return nil, err
	}
	ln.owner = make([]int, len(specs))
	for i, spec := range specs {
		ln.native = ln.native || spec.native
		ln.owner[i] = slices.IndexFunc(specs[:i+1], func(o *batchAggSpec) bool {
			return o == spec || spec.numCol > 0 && o.numCol == spec.numCol
		})
	}
	if len(groupIdx) > 0 {
		ln.bindKeyFill(schema, groupIdx, !lw.oracle)
	} else if len(specs) == 1 && specs[0].fused != nil {
		ln.fused = specs[0]
	}
	ln.prog = lw.bc.prog
	return ln, nil
}

// keyIndex numbers the keys of one morsel's groups densely in first-seen
// order: an open-addressing hash table over keys, kept at most half
// full. A slot holds a key, its hash and its id+1 (0 is an empty slot),
// so that a probe reads one slot.
type keyIndex[K comparable] struct {
	keys  []K
	hs    []uint64 // the hash of keys[id]
	slots []keySlot[K]
	shift uint8 // a hash's home slot is its top log2(len(slots)) bits
}

type keySlot[K comparable] struct {
	h  uint64
	id int32
	k  K
}

// resolve sets ids[j] to the id of keys[j], whose hash is hs[j], giving
// each new key the next id and passing its position j to fresh.
func (ix *keyIndex[K]) resolve(keys []K, hs []uint64, ids []int32, fresh func(j int)) {
	// The table is read through locals, reloaded only when add grew it.
	slots, shift := ix.slots, ix.shift&63
	for j, k := range keys {
		h := hs[j]
		i := int(h >> shift)
		for sl := &slots[i]; sl.id != 0 && (sl.h != h || sl.k != k); sl = &slots[i] {
			i = (i + 1) & (len(slots) - 1)
		}
		if id := slots[i].id; id != 0 {
			ids[j] = id - 1
			continue
		}
		ids[j] = ix.add(k, h)
		fresh(j)
		slots, shift = ix.slots, ix.shift&63
	}
}

// add gives k, a new key, the next id, doubling the table when it would
// be more than half full.
func (ix *keyIndex[K]) add(k K, h uint64) int32 {
	id := int32(len(ix.keys))
	ix.keys, ix.hs = append(ix.keys, k), append(ix.hs, h)
	if 2*len(ix.keys) > len(ix.slots) {
		ix.rehash(2 * len(ix.slots))
	} else {
		ix.place(id)
	}
	return id
}

// rehash rebuilds the table over n slots, a power of two.
func (ix *keyIndex[K]) rehash(n int) {
	ix.slots, ix.shift = make([]keySlot[K], n), uint8(64-bits.TrailingZeros(uint(n)))
	for id := range ix.hs {
		ix.place(int32(id))
	}
}

// place puts id in the first empty slot from its key's home slot on.
func (ix *keyIndex[K]) place(id int32) {
	h, mask := ix.hs[id], len(ix.slots)-1
	i := int(h >> ix.shift)
	for ix.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = keySlot[K]{h, id + 1, ix.keys[id]}
}

func (ix *keyIndex[K]) reset() {
	clear(ix.keys)
	ix.keys, ix.hs = ix.keys[:0], ix.hs[:0]
	clear(ix.slots)
}

// intHash is Fibonacci hashing: the top bits of the product depend on
// every bit of k.
func intHash(k int64) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// strSeed seeds the text group keys' hashes.
var strSeed = maphash.MakeSeed()
