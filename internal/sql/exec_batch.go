package sql

import (
	"sync"

	"madlib/internal/engine"
)

// The aggregate executor. Every planned aggregate query carries one
// batchAggLane and runs it through engine.RunBatched / RunGroupByBatched:
// the WHERE kernel filters each batch into a selection vector, the group
// keys fill a key lane, and one batchAggSpec per aggregate call folds
// the survivors. A built-in call's spec folds an argument lane into its
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
	if pi.validE != nil {
		vl, err := pi.validE(e, b, sel)
		if err != nil {
			return err
		}
		dst.valid = append(reserve(dst.valid, len(vl), batches), vl...)
	}
	switch {
	case pi.evalF != nil:
		vals, err := pi.evalF(e, b, sel)
		if err != nil {
			return err
		}
		dst.kind, dst.floats = ckFloat, append(reserve(dst.floats, len(vals), batches), vals...)
	case pi.evalI != nil:
		vals, err := pi.evalI(e, b, sel)
		if err != nil {
			return err
		}
		dst.kind, dst.ints = ckInt, append(reserve(dst.ints, len(vals), batches), vals...)
	case pi.evalS != nil:
		vals, err := pi.evalS(e, b, sel)
		if err != nil {
			return err
		}
		dst.kind, dst.strs = ckStr, append(reserve(dst.strs, len(vals), batches), vals...)
	case pi.evalB != nil:
		vals, err := pi.evalB(e, b, sel)
		if err != nil {
			return err
		}
		dst.kind, dst.bools = ckBool, append(reserve(dst.bools, len(vals), batches), vals...)
	}
	return nil
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
// morsel alignment and used as a hint only (lane sizing, early scratch
// reuse) — an overestimate costs capacity, never rows.
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
	if !lw.oracle {
		if pi, ok := buildProjItem(e, lw.bc); ok {
			pi.kind = c.kind
			return pi, nil
		}
	}
	return &projItem{rowFn: c.a, kind: c.kind}, nil
}

// morselScratch is one morsel's kernel scratch under every batch
// executor: the lanes the program reserved at compile time, plus the
// predicate's output lane and the selection vector it compresses into.
type morselScratch struct {
	e       *batchEval
	predOut []bool
	selBuf  []int32
}

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
	sel := ms.selBuf[:0]
	for j, ok := range keep {
		if ok {
			sel = append(sel, int32(j))
		}
	}
	return sel, nil
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
			}
		}
	}()
	err := scan(func(mi int, b engine.ColBatch) error {
		ms := scratch[mi]
		if ms == nil {
			if ms, _ = prog.pool.Get().(*morselScratch); ms == nil {
				ms = &morselScratch{e: prog.newEval(nil)}
			}
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
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return accs, nil
}

// batchKeyMode selects the segment-local hash-map representation for
// the GROUP BY key. Single-column keys use Go's specialized int64 /
// string map fast paths and convert to engine.GroupKey only once per
// segment (at most one conversion per group); composite keys use the
// generic GroupKey map directly.
type batchKeyMode int

const (
	keyModeNone batchKeyMode = iota
	keyModeInt               // Int, Bool and Float single-column keys, as int64
	keyModeStr               // String single-column keys
	keyModeGeneric
)

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

	// fused, when non-nil, is specs[0] of an ungrouped single-aggregate
	// query whose argument folds straight off a raw lane (a bare column,
	// or count's): processFused replaces the select+gather+fold
	// pipeline.
	fused *batchAggSpec

	keyMode    batchKeyMode
	keyFillInt func(b engine.ColBatch, sel selVec, keys []int64)
	keyFillStr func(b engine.ColBatch, sel selVec, keys []string)
	keyFill    func(b engine.ColBatch, sel selVec, keys []engine.GroupKey)
}

// batchGroup is one group's accumulators plus its key values, captured
// from the row that created the group.
type batchGroup struct {
	accs    []any
	keyVals []any
}

// batchMorselState is the aggregate executor's per-morsel state: the
// kernel scratch plus the key lanes, group-pointer resolution and the
// morsel's accumulators.
type batchMorselState struct {
	morselScratch
	intKeys []int64
	strKeys []string
	keys    []engine.GroupKey
	grps    []*batchGroup
	accs    []any // ungrouped accumulators
	// Exactly one of the maps is used, per the lane's keyMode.
	mInt map[int64]*batchGroup
	mStr map[string]*batchGroup
	m    map[engine.GroupKey]*batchGroup
}

func (ln *batchAggLane) newMorselState(env *execEnv, grouped bool) *batchMorselState {
	st, _ := ln.prog.pool.Get().(*batchMorselState)
	if st == nil {
		st = &batchMorselState{morselScratch: morselScratch{e: ln.prog.newEval(env)}}
		if grouped {
			st.grps = make([]*batchGroup, engine.BatchSize)
			switch ln.keyMode {
			case keyModeInt:
				st.intKeys = make([]int64, engine.BatchSize)
			case keyModeStr:
				st.strKeys = make([]string, engine.BatchSize)
			default:
				st.keys = make([]engine.GroupKey, engine.BatchSize)
			}
		}
	}
	st.e.env = env
	if grouped {
		switch ln.keyMode {
		case keyModeInt:
			if st.mInt == nil {
				st.mInt = make(map[int64]*batchGroup)
			}
		case keyModeStr:
			if st.mStr == nil {
				st.mStr = make(map[string]*batchGroup)
			}
		default:
			if st.m == nil {
				st.m = make(map[engine.GroupKey]*batchGroup)
			}
		}
	} else {
		st.accs = make([]any, len(ln.specs))
		for i, spec := range ln.specs {
			st.accs[i] = spec.init()
		}
	}
	return st
}

// releaseMorselState returns a segment state's scratch to the pool. The
// per-execution outputs (accumulators, group map entries) have already
// escaped into the merged result; drop every reference to them so the
// pooled scratch cannot pin group memory.
func (ln *batchAggLane) releaseMorselState(st *batchMorselState) {
	st.e.env = nil
	st.accs = nil
	for _, lane := range st.e.as {
		clear(lane)
	}
	if st.m != nil {
		clear(st.m)
	}
	if st.mInt != nil {
		clear(st.mInt)
	}
	if st.mStr != nil {
		clear(st.mStr)
	}
	for j := range st.grps {
		st.grps[j] = nil
	}
	for j := range st.keys {
		st.keys[j] = engine.GroupKey{}
	}
	for j := range st.strKeys {
		st.strKeys[j] = ""
	}
	ln.prog.pool.Put(st)
}

// processUngrouped folds one batch into the segment's accumulators.
func (ln *batchAggLane) processUngrouped(st *batchMorselState, b engine.ColBatch) error {
	if ln.fused != nil {
		return ln.processFused(st, b)
	}
	sel, err := st.filter(ln.pred, b)
	if err != nil || len(sel) == 0 {
		return err
	}
	for ai, spec := range ln.specs {
		if err := spec.fold(st.e, b, sel, &st.accs[ai]); err != nil {
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
	return ln.fused.fused(st.e, b, keep, st.accs[0])
}

// processGrouped folds one batch into the segment's per-group
// accumulators: key lane, one map probe per row, then per-aggregate
// lane folds against the resolved group pointers.
func (ln *batchAggLane) processGrouped(st *batchMorselState, b engine.ColBatch) error {
	sel, err := st.filter(ln.pred, b)
	if err != nil {
		return err
	}
	if len(sel) == 0 {
		return nil
	}
	grps := st.grps[:len(sel)]
	switch ln.keyMode {
	case keyModeInt:
		keys := st.intKeys[:len(sel)]
		ln.keyFillInt(b, sel, keys)
		for j, k := range keys {
			g, ok := st.mInt[k]
			if !ok {
				g = ln.newGroup(b, sel[j])
				st.mInt[k] = g
			}
			grps[j] = g
		}
	case keyModeStr:
		keys := st.strKeys[:len(sel)]
		ln.keyFillStr(b, sel, keys)
		for j, k := range keys {
			g, ok := st.mStr[k]
			if !ok {
				g = ln.newGroup(b, sel[j])
				st.mStr[k] = g
			}
			grps[j] = g
		}
	default:
		keys := st.keys[:len(sel)]
		ln.keyFill(b, sel, keys)
		for j, k := range keys {
			g, ok := st.m[k]
			if !ok {
				g = ln.newGroup(b, sel[j])
				st.m[k] = g
			}
			grps[j] = g
		}
	}
	// Rows whose argument is NULL still create their group; their
	// folds just skip them.
	for ai, spec := range ln.specs {
		if err := spec.foldGroups(st.e, b, sel, grps, ai); err != nil {
			return err
		}
	}
	return nil
}

// newGroup creates one group's accumulators and captures its key values
// from the creating row.
func (ln *batchAggLane) newGroup(b engine.ColBatch, idx int32) *batchGroup {
	g := &batchGroup{accs: make([]any, len(ln.specs)), keyVals: make([]any, len(ln.groupIdx))}
	for ai, spec := range ln.specs {
		g.accs[ai] = spec.init()
	}
	row := b.Row(int(idx))
	for gi, ci := range ln.groupIdx {
		g.keyVals[gi] = rowValue(ln.schema, &row, ci)
	}
	return g
}

// morselGroups converts a morsel's typed map into the engine's GroupKey
// map — one conversion per group, after the whole morsel is scanned.
func (ln *batchAggLane) morselGroups(st *batchMorselState) map[engine.GroupKey]any {
	switch ln.keyMode {
	case keyModeInt:
		out := make(map[engine.GroupKey]any, len(st.mInt))
		for k, g := range st.mInt {
			out[engine.GroupKey{Int: k}] = g
		}
		return out
	case keyModeStr:
		out := make(map[engine.GroupKey]any, len(st.mStr))
		for k, g := range st.mStr {
			out[engine.GroupKey{Str: k}] = g
		}
		return out
	default:
		out := make(map[engine.GroupKey]any, len(st.m))
		for k, g := range st.m {
			out[k] = g
		}
		return out
	}
}

// mergeGroups combines two groups' accumulators pairwise, keeping the
// left (lower-segment) group's key values.
func (ln *batchAggLane) mergeGroups(a, b *batchGroup) *batchGroup {
	for i, spec := range ln.specs {
		a.accs[i] = spec.merge(a.accs[i], b.accs[i])
	}
	return a
}

// finalize turns one group's accumulators into a finalized multiState,
// the shape the shared output stage (evalGroup, HAVING, ORDER BY)
// consumes.
func (ln *batchAggLane) finalize(g *batchGroup) (*multiState, error) {
	out := &multiState{slots: make([]any, len(ln.specs)), keyVals: g.keyVals}
	for i, spec := range ln.specs {
		v, err := spec.final(g.accs[i])
		if err != nil {
			return nil, err
		}
		out.slots[i] = v
	}
	return out, nil
}

// execBatch drives the lane over the acquired input table (the base
// table, or a join's materialization) and returns one finalized
// multiState per group (exactly one for ungrouped aggregates).
func (p *aggPlan) execBatch(s *Session, env *execEnv, input *engine.Table) ([]*multiState, error) {
	ln := p.lane
	grouped := len(p.groupIdx) > 0
	// Track every morsel state so the scratch returns to the pool even
	// when a kernel errors mid-scan.
	var mu sync.Mutex
	var tracked []*batchMorselState
	newMorsel := func(int) any {
		st := ln.newMorselState(env, grouped)
		mu.Lock()
		tracked = append(tracked, st)
		mu.Unlock()
		return st
	}
	defer func() {
		for _, st := range tracked {
			if st != nil {
				ln.releaseMorselState(st)
			}
		}
	}()
	if !grouped {
		v, err := s.db.RunBatchedCtx(env.context(), input, newMorsel,
			func(state any, b engine.ColBatch) error {
				return ln.processUngrouped(state.(*batchMorselState), b)
			},
			func(a, b any) any {
				sa, sb := a.(*batchMorselState), b.(*batchMorselState)
				for i, spec := range ln.specs {
					sa.accs[i] = spec.merge(sa.accs[i], sb.accs[i])
				}
				return sa
			})
		if err != nil {
			return nil, err
		}
		ms, err := ln.finalize(&batchGroup{accs: v.(*batchMorselState).accs})
		if err != nil {
			return nil, err
		}
		return []*multiState{ms}, nil
	}
	groups, err := s.db.RunGroupByBatchedCtx(env.context(), input, newMorsel,
		func(state any, b engine.ColBatch) error {
			return ln.processGrouped(state.(*batchMorselState), b)
		},
		func(state any) map[engine.GroupKey]any {
			return ln.morselGroups(state.(*batchMorselState))
		},
		func(a, b any) any { return ln.mergeGroups(a.(*batchGroup), b.(*batchGroup)) })
	if err != nil {
		return nil, err
	}
	states := make([]*multiState, 0, len(groups))
	for _, v := range groups {
		ms, err := ln.finalize(v.(*batchGroup))
		if err != nil {
			return nil, err
		}
		states = append(states, ms)
	}
	return states, nil
}

// bindKeyFill wires the lane's group-key projection. With typed set,
// single Int/Bool/Float columns key as int64 and single String columns
// as the string itself; composite keys, Vector keys and the oracle mode
// encode each row's key columns injectively into GroupKey.Str.
func (ln *batchAggLane) bindKeyFill(schema engine.Schema, groupIdx []int, typed bool) {
	if typed && len(groupIdx) == 1 {
		gi := groupIdx[0]
		switch schema[gi].Kind {
		case engine.Int:
			ln.keyMode = keyModeInt
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
			ln.keyMode = keyModeInt
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
			ln.keyMode = keyModeInt
			ln.keyFillInt = func(b engine.ColBatch, sel selVec, keys []int64) {
				lane := b.Floats(gi)
				for j, idx := range sel {
					keys[j] = floatKeyBits(lane[idx])
				}
			}
			return
		case engine.String:
			ln.keyMode = keyModeStr
			ln.keyFillStr = func(b engine.ColBatch, sel selVec, keys []string) {
				lane := b.Strings(gi)
				for j, idx := range sel {
					keys[j] = lane[idx]
				}
			}
			return
		}
	}
	ln.keyMode = keyModeGeneric
	ln.keyFill = func(b engine.ColBatch, sel selVec, keys []engine.GroupKey) {
		var buf []byte
		for j, idx := range sel {
			row := b.Row(int(idx))
			buf = buf[:0]
			for _, gi := range groupIdx {
				buf = appendKeyValue(buf, schema, row, gi)
			}
			keys[j] = engine.GroupKey{Str: string(buf)}
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
	for _, spec := range specs {
		ln.native = ln.native || spec.native
	}
	if len(groupIdx) > 0 {
		ln.bindKeyFill(schema, groupIdx, !lw.oracle)
	} else if len(specs) == 1 && specs[0].fused != nil {
		ln.fused = specs[0]
	}
	ln.prog = lw.bc.prog
	return ln, nil
}
