package sql

import (
	"sync"

	"madlib/internal/engine"
)

// The aggregate executor. Every planned aggregate query carries one
// batchAggLane and runs it through engine.RunBatched / RunGroupByBatched:
// the WHERE kernel filters each batch into a selection vector, the group
// keys fill a key lane, and one batchAggSpec per aggregate call folds
// the survivors. A spec is either the call's native lowering — a typed
// argument lane folded into an unboxed accumulator — or, where
// compile_batch.go has no kernel for the argument (and always in oracle
// mode), the row-lane engine.Aggregate folded row by row through updRow.
// Both use the same accumulator structs and finalizers (numAccState,
// fminmaxState, ...) and fold a morsel's rows in row order, and morsel
// states merge in (segment, offset) order, so the two lowerings are
// bit-identical.

// batchAggSpec is one aggregate call lowered for the batch executor. At
// most one of evalF/evalI/evalS is set for value-folding aggregates; all
// are nil for count (which may still carry evalDiscard to surface
// argument evaluation errors, matching count(expr) on the row closure)
// and for specs that fold whole rows through updRow.
type batchAggSpec struct {
	evalF func(e *batchEval, b engine.ColBatch, sel selVec) ([]float64, error)
	evalI func(e *batchEval, b engine.ColBatch, sel selVec) ([]int64, error)
	evalS func(e *batchEval, b engine.ColBatch, sel selVec) ([]string, error)
	// evalDiscard evaluates a count(expr) argument for its errors only.
	evalDiscard func(e *batchEval, b engine.ColBatch, sel selVec) error
	// validV, when non-nil, evaluates the argument's validity lane: the
	// argument can be NULL (it reads the padded side of a LEFT JOIN) and
	// the aggregate must skip invalid rows, exactly as the row lane's
	// accumulators skip nil. The value lanes hold don't-care padding at
	// invalid positions.
	validV func(e *batchEval, b engine.ColBatch, sel selVec) ([]bool, error)

	init func() any
	// updF/updI/updS/updN fold one selected row into an accumulator
	// (grouped path); foldF/foldI/foldS fold a whole lane (ungrouped
	// fast path).
	updF  func(st any, v float64)
	updI  func(st any, v int64)
	updS  func(st any, v string)
	updN  func(st any, n int64)
	foldF func(st any, vals []float64)
	foldI func(st any, vals []int64)
	foldS func(st any, vals []string)

	// updRow folds one selected row through an engine.Aggregate
	// transition: the fallback fold of madlib scalar aggregates and of
	// built-in calls with no native lowering.
	updRow func(st any, row engine.Row) any
	// bind, when non-nil, marks a row-folded spec not yet bound to an
	// execution: the row-lane aggregate is built per execution (its
	// compiled argument may read $n) and batchAggLane.bound swaps in the
	// spec that folds through it.
	bind aggBuilder

	// argCol >= 0 marks an argument that is a bare column reference of
	// the matching lane kind; together with fusedF/fusedI it enables the
	// fused filter+aggregate path for single-aggregate queries, which
	// folds the raw column lane against the predicate's bool lane with
	// no selection vector and no gather.
	argCol int
	fusedF func(st any, lane []float64, keep []bool)
	fusedI func(st any, lane []int64, keep []bool)

	merge func(a, b any) any
	final func(st any) (any, error)
}

// buildBatchAggregate lowers one built-in aggregate call to its native
// batch spec; ok=false (bool min/max, Vector-typed or dynamic arguments,
// registered madlib aggregates) leaves the call to the row fold.
func buildBatchAggregate(call *FuncCall, bc *batchCompiler) (*batchAggSpec, bool) {
	spec, ok := buildBuiltinBatchSpec(call, bc)
	if !ok {
		return nil, false
	}
	spec.argCol = -1
	attachFused(spec, call, bc)
	return spec, true
}

func buildBuiltinBatchSpec(call *FuncCall, bc *batchCompiler) (*batchAggSpec, bool) {
	if call.Schema != "" || !builtinAggs[call.Name] {
		return nil, false
	}
	var arg *bcompiled
	if !call.Star {
		if len(call.Args) != 1 {
			return nil, false
		}
		var ok bool
		arg, ok = compileBatchExpr(call.Args[0], bc)
		if !ok || arg.scalar != nil {
			return nil, false
		}
	}
	switch call.Name {
	case "count":
		spec := &batchAggSpec{
			init: func() any { return &countState{} },
			updN: func(st any, n int64) { st.(*countState).n += n },
			merge: func(a, b any) any {
				sa, sb := a.(*countState), b.(*countState)
				sa.n += sb.n
				return sa
			},
			final: func(st any) (any, error) { return st.(*countState).n, nil },
		}
		// count(expr) counts non-NULL values: a possibly-NULL argument
		// contributes its validity lane and only valid rows count.
		if arg != nil && arg.valid != nil {
			spec.validV = laneEvalV(arg.valid, bc)
		}
		// count(expr) evaluates its argument so runtime errors surface;
		// constant arguments and bare column references cannot fail and
		// skip the evaluation (storage holds no errors, and a NULL-padded
		// gather is fault-free).
		isBareCol := false
		if len(call.Args) == 1 {
			_, isBareCol = call.Args[0].(*ColumnRef)
		}
		if arg != nil && !arg.isConst && !isBareCol {
			switch arg.kind {
			case ckFloat:
				fk := arg.f
				slot := bc.floatSlot()
				spec.evalDiscard = func(e *batchEval, b engine.ColBatch, sel selVec) error {
					return fk(e, b, sel, e.f(slot, len(sel)))
				}
			case ckInt:
				ik := arg.i
				slot := bc.intSlot()
				spec.evalDiscard = func(e *batchEval, b engine.ColBatch, sel selVec) error {
					return ik(e, b, sel, e.i(slot, len(sel)))
				}
			case ckStr:
				sk := arg.s
				slot := bc.strSlot()
				spec.evalDiscard = func(e *batchEval, b engine.ColBatch, sel selVec) error {
					return sk(e, b, sel, e.s(slot, len(sel)))
				}
			case ckBool:
				bk := arg.b
				slot := bc.boolSlot()
				spec.evalDiscard = func(e *batchEval, b engine.ColBatch, sel selVec) error {
					return bk(e, b, sel, e.b(slot, len(sel)))
				}
			default:
				return nil, false
			}
		}
		return spec, true
	case "min", "max":
		wantLess := call.Name == "min"
		switch arg.kind {
		case ckInt:
			spec := &batchAggSpec{
				init: func() any { return &iminmaxState{} },
				updI: func(st any, v int64) {
					s := st.(*iminmaxState)
					if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
						s.val, s.seen = v, true
					}
				},
				merge: func(a, b any) any {
					sa, sb := a.(*iminmaxState), b.(*iminmaxState)
					if sb.seen && (!sa.seen || (wantLess && sb.val < sa.val) || (!wantLess && sb.val > sa.val)) {
						sa.val, sa.seen = sb.val, true
					}
					return sa
				},
				final: func(st any) (any, error) {
					s := st.(*iminmaxState)
					if !s.seen {
						return nil, nil
					}
					return s.val, nil
				},
			}
			spec.evalI = laneEvalI(arg.i, bc)
			spec.foldI = func(st any, vals []int64) {
				for _, v := range vals {
					spec.updI(st, v)
				}
			}
			return withValidity(spec, arg, bc), true
		case ckFloat:
			spec := &batchAggSpec{
				init: func() any { return &fminmaxState{} },
				updF: func(st any, v float64) {
					s := st.(*fminmaxState)
					if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
						s.val, s.seen = v, true
					}
				},
				merge: func(a, b any) any {
					sa, sb := a.(*fminmaxState), b.(*fminmaxState)
					if sb.seen && (!sa.seen || (wantLess && sb.val < sa.val) || (!wantLess && sb.val > sa.val)) {
						sa.val, sa.seen = sb.val, true
					}
					return sa
				},
				final: func(st any) (any, error) {
					s := st.(*fminmaxState)
					if !s.seen {
						return nil, nil
					}
					return s.val, nil
				},
			}
			spec.evalF = laneEvalF(arg.f, bc)
			spec.foldF = func(st any, vals []float64) {
				for _, v := range vals {
					spec.updF(st, v)
				}
			}
			return withValidity(spec, arg, bc), true
		case ckStr:
			spec := &batchAggSpec{
				init: func() any { return &sminmaxState{} },
				updS: func(st any, v string) {
					s := st.(*sminmaxState)
					if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
						s.val, s.seen = v, true
					}
				},
				merge: func(a, b any) any {
					sa, sb := a.(*sminmaxState), b.(*sminmaxState)
					if sb.seen && (!sa.seen || (wantLess && sb.val < sa.val) || (!wantLess && sb.val > sa.val)) {
						sa.val, sa.seen = sb.val, true
					}
					return sa
				},
				final: func(st any) (any, error) {
					s := st.(*sminmaxState)
					if !s.seen {
						return nil, nil
					}
					return s.val, nil
				},
			}
			spec.evalS = laneEvalS(arg.s, bc)
			spec.foldS = func(st any, vals []string) {
				for _, v := range vals {
					spec.updS(st, v)
				}
			}
			return withValidity(spec, arg, bc), true
		}
		return nil, false
	case "sum", "avg", "variance", "stddev":
		final := numAccFinal(call.Name)
		switch arg.kind {
		case ckInt:
			spec := &batchAggSpec{
				init: func() any { return &numAccState{intOnly: true} },
				updI: func(st any, v int64) {
					s := st.(*numAccState)
					f := float64(v)
					s.sumInt += v
					s.n++
					s.sum += f
					s.sumSq += f * f
				},
				merge: func(a, b any) any { return mergeNumAcc(a, b) },
				final: func(st any) (any, error) { return final(st) },
			}
			spec.evalI = laneEvalI(arg.i, bc)
			spec.foldI = func(st any, vals []int64) {
				s := st.(*numAccState)
				for _, v := range vals {
					f := float64(v)
					s.sumInt += v
					s.sum += f
					s.sumSq += f * f
				}
				s.n += int64(len(vals))
			}
			return withValidity(spec, arg, bc), true
		case ckFloat:
			spec := &batchAggSpec{
				init: func() any { return &numAccState{} },
				updF: func(st any, v float64) {
					s := st.(*numAccState)
					s.n++
					s.sum += v
					s.sumSq += v * v
				},
				merge: func(a, b any) any { return mergeNumAcc(a, b) },
				final: func(st any) (any, error) { return final(st) },
			}
			spec.evalF = laneEvalF(arg.f, bc)
			spec.foldF = func(st any, vals []float64) {
				s := st.(*numAccState)
				for _, v := range vals {
					s.sum += v
					s.sumSq += v * v
				}
				s.n += int64(len(vals))
			}
			return withValidity(spec, arg, bc), true
		}
		return nil, false
	}
	return nil, false
}

func laneEvalF(fk fBatchKernel, bc *batchCompiler) func(*batchEval, engine.ColBatch, selVec) ([]float64, error) {
	slot := bc.floatSlot()
	return func(e *batchEval, b engine.ColBatch, sel selVec) ([]float64, error) {
		out := e.f(slot, len(sel))
		if err := fk(e, b, sel, out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func laneEvalI(ik iBatchKernel, bc *batchCompiler) func(*batchEval, engine.ColBatch, selVec) ([]int64, error) {
	slot := bc.intSlot()
	return func(e *batchEval, b engine.ColBatch, sel selVec) ([]int64, error) {
		out := e.i(slot, len(sel))
		if err := ik(e, b, sel, out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func laneEvalS(sk sBatchKernel, bc *batchCompiler) func(*batchEval, engine.ColBatch, selVec) ([]string, error) {
	slot := bc.strSlot()
	return func(e *batchEval, b engine.ColBatch, sel selVec) ([]string, error) {
		out := e.s(slot, len(sel))
		if err := sk(e, b, sel, out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func laneEvalB(bk bBatchKernel, bc *batchCompiler) func(*batchEval, engine.ColBatch, selVec) ([]bool, error) {
	slot := bc.boolSlot()
	return func(e *batchEval, b engine.ColBatch, sel selVec) ([]bool, error) {
		out := e.b(slot, len(sel))
		if err := bk(e, b, sel, out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// laneEvalV is laneEvalB over a validity kernel (a distinct helper only
// for readability at call sites).
func laneEvalV(vk bBatchKernel, bc *batchCompiler) func(*batchEval, engine.ColBatch, selVec) ([]bool, error) {
	return laneEvalB(vk, bc)
}

// withValidity attaches the argument's validity lane to a value-folding
// spec so its folds can skip NULL rows.
func withValidity(spec *batchAggSpec, arg *bcompiled, bc *batchCompiler) *batchAggSpec {
	if arg != nil && arg.valid != nil {
		spec.validV = laneEvalV(arg.valid, bc)
	}
	return spec
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
	evalF func(e *batchEval, b engine.ColBatch, sel selVec) ([]float64, error)
	evalI func(e *batchEval, b engine.ColBatch, sel selVec) ([]int64, error)
	evalS func(e *batchEval, b engine.ColBatch, sel selVec) ([]string, error)
	evalB func(e *batchEval, b engine.ColBatch, sel selVec) ([]bool, error)
	// validE, when non-nil, marks a possibly-NULL item: its validity lane
	// rides beside the value lane (false is the row closure's NULL).
	validE func(e *batchEval, b engine.ColBatch, sel selVec) ([]bool, error)
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
		pi.evalF = laneEvalF(c.f, bc)
	case ckInt:
		pi.evalI = laneEvalI(c.i, bc)
	case ckStr:
		pi.evalS = laneEvalS(c.s, bc)
	case ckBool:
		pi.evalB = laneEvalB(c.b, bc)
	default:
		return nil, false
	}
	if c.valid != nil {
		pi.validE = laneEvalV(c.valid, bc)
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

// aggregate lowers one aggregate call; bind is set on the result when
// the row fold was taken.
func (lw *lowering) aggregate(call *FuncCall) (*batchAggSpec, error) {
	build, err := buildAggregate(call, lw.cc)
	if err != nil {
		return nil, err
	}
	if !lw.oracle {
		if spec, ok := buildBatchAggregate(call, lw.bc); ok {
			return spec, nil
		}
	}
	return &batchAggSpec{argCol: -1, bind: build}, nil
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

// sminmaxState is the batch lane's unboxed text min/max accumulator
// (the row lane keeps these boxed in minmaxState; results agree because
// string comparison is exact).
type sminmaxState struct {
	val  string
	seen bool
}

// attachFused marks aggregate arguments that are bare column references
// and equips the spec with fused filter+fold kernels over the raw lane.
// planAggLane promotes the spec to the fused path for ungrouped
// single-aggregate queries: one predicate pass, one fold pass, no
// selection vector, no gather. Fold order is row order within the
// segment either way, so results stay bit-identical to the unfused lane.
func attachFused(spec *batchAggSpec, call *FuncCall, bc *batchCompiler) {
	if call.Star || len(call.Args) != 1 {
		return
	}
	cr, ok := call.Args[0].(*ColumnRef)
	if !ok {
		return
	}
	ci, ok := bc.colIdx[cr.Name]
	if !ok {
		return
	}
	if bc.nullable != nil && bc.nullable[ci] {
		// NULL-padded column: the fused kernels fold raw lanes with no
		// validity mask, so nullable arguments stay on the gather path.
		return
	}
	switch call.Name {
	case "sum", "avg", "variance", "stddev":
		switch bc.schema[ci].Kind {
		case engine.Float:
			spec.argCol = ci
			spec.fusedF = func(st any, lane []float64, keep []bool) {
				s := st.(*numAccState)
				if keep == nil {
					for _, v := range lane {
						s.sum += v
						s.sumSq += v * v
					}
					s.n += int64(len(lane))
					return
				}
				for i, v := range lane {
					if keep[i] {
						s.sum += v
						s.sumSq += v * v
						s.n++
					}
				}
			}
		case engine.Int:
			spec.argCol = ci
			spec.fusedI = func(st any, lane []int64, keep []bool) {
				s := st.(*numAccState)
				if keep == nil {
					for _, v := range lane {
						f := float64(v)
						s.sumInt += v
						s.sum += f
						s.sumSq += f * f
					}
					s.n += int64(len(lane))
					return
				}
				for i, v := range lane {
					if keep[i] {
						f := float64(v)
						s.sumInt += v
						s.sum += f
						s.sumSq += f * f
						s.n++
					}
				}
			}
		}
	case "min", "max":
		wantLess := call.Name == "min"
		switch bc.schema[ci].Kind {
		case engine.Float:
			spec.argCol = ci
			spec.fusedF = func(st any, lane []float64, keep []bool) {
				s := st.(*fminmaxState)
				for i, v := range lane {
					if keep != nil && !keep[i] {
						continue
					}
					if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
						s.val, s.seen = v, true
					}
				}
			}
		case engine.Int:
			spec.argCol = ci
			spec.fusedI = func(st any, lane []int64, keep []bool) {
				s := st.(*iminmaxState)
				for i, v := range lane {
					if keep != nil && !keep[i] {
						continue
					}
					if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
						s.val, s.seen = v, true
					}
				}
			}
		}
	}
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
	// query whose argument folds straight off a column lane (or count):
	// processFused replaces the select+gather+fold pipeline.
	fused *batchAggSpec

	keyMode    batchKeyMode
	keyFillInt func(b engine.ColBatch, sel selVec, keys []int64)
	keyFillStr func(b engine.ColBatch, sel selVec, keys []string)
	keyFill    func(b engine.ColBatch, sel selVec, keys []engine.GroupKey)
}

// bound returns the lane with every row-folded spec bound to this
// execution's environment — the lane itself when it has none.
func (ln *batchAggLane) bound(env *execEnv) (*batchAggLane, error) {
	out := ln
	for i, spec := range ln.specs {
		if spec.bind == nil {
			continue
		}
		agg, err := spec.bind(env)
		if err != nil {
			return nil, err
		}
		if out == ln {
			cp := *ln
			cp.specs = append([]*batchAggSpec(nil), ln.specs...)
			out = &cp
		}
		out.specs[i] = &batchAggSpec{argCol: -1, init: agg.Init, updRow: agg.Transition, merge: agg.Merge, final: agg.Final}
	}
	return out, nil
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
	if err != nil {
		return err
	}
	if len(sel) == 0 {
		return nil
	}
	for ai, spec := range ln.specs {
		// vl is the argument's validity lane; nil means every selected row
		// folds (the common, NULL-free case).
		var vl []bool
		if spec.validV != nil {
			var err error
			vl, err = spec.validV(st.e, b, sel)
			if err != nil {
				return err
			}
		}
		switch {
		case spec.updRow != nil:
			acc := st.accs[ai]
			for _, idx := range sel {
				acc = spec.updRow(acc, b.Row(int(idx)))
			}
			st.accs[ai] = acc
		case spec.evalF != nil:
			vals, err := spec.evalF(st.e, b, sel)
			if err != nil {
				return err
			}
			if vl != nil {
				for j, v := range vals {
					if vl[j] {
						spec.updF(st.accs[ai], v)
					}
				}
			} else {
				spec.foldF(st.accs[ai], vals)
			}
		case spec.evalI != nil:
			vals, err := spec.evalI(st.e, b, sel)
			if err != nil {
				return err
			}
			if vl != nil {
				for j, v := range vals {
					if vl[j] {
						spec.updI(st.accs[ai], v)
					}
				}
			} else {
				spec.foldI(st.accs[ai], vals)
			}
		case spec.evalS != nil:
			vals, err := spec.evalS(st.e, b, sel)
			if err != nil {
				return err
			}
			if vl != nil {
				for j, v := range vals {
					if vl[j] {
						spec.updS(st.accs[ai], v)
					}
				}
			} else {
				spec.foldS(st.accs[ai], vals)
			}
		default:
			if spec.evalDiscard != nil {
				if err := spec.evalDiscard(st.e, b, sel); err != nil {
					return err
				}
			}
			if vl != nil {
				var n int64
				for _, ok := range vl {
					if ok {
						n++
					}
				}
				spec.updN(st.accs[ai], n)
			} else {
				spec.updN(st.accs[ai], int64(len(sel)))
			}
		}
	}
	return nil
}

// processFused is the fused filter+aggregate path: evaluate the WHERE
// kernel into a bool lane (when present) and fold the aggregate's raw
// column lane against it in one pass — no selection vector, no gather,
// no per-value closure. Only planned for ungrouped single-aggregate
// queries whose argument is a bare column reference or count(*).
func (ln *batchAggLane) processFused(st *batchMorselState, b engine.ColBatch) error {
	var keep []bool
	if ln.pred != nil {
		var err error
		if keep, err = st.keepLane(ln.pred, b); err != nil {
			return err
		}
	}
	spec := ln.fused
	switch {
	case spec.fusedF != nil:
		spec.fusedF(st.accs[0], b.Floats(spec.argCol), keep)
	case spec.fusedI != nil:
		spec.fusedI(st.accs[0], b.Ints(spec.argCol), keep)
	default: // count(*) / count(col)
		n := int64(b.Len())
		if keep != nil {
			n = 0
			for _, k := range keep {
				if k {
					n++
				}
			}
		}
		spec.updN(st.accs[0], n)
	}
	return nil
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
	for ai, spec := range ln.specs {
		// vl is the argument's validity lane; invalid rows still create
		// their group (a row-folded spec sees the row too), they just
		// don't fold a value.
		var vl []bool
		if spec.validV != nil {
			var err error
			vl, err = spec.validV(st.e, b, sel)
			if err != nil {
				return err
			}
		}
		switch {
		case spec.updRow != nil:
			for j, g := range grps {
				g.accs[ai] = spec.updRow(g.accs[ai], b.Row(int(sel[j])))
			}
		case spec.evalF != nil:
			vals, err := spec.evalF(st.e, b, sel)
			if err != nil {
				return err
			}
			upd := spec.updF
			for j, g := range grps {
				if vl == nil || vl[j] {
					upd(g.accs[ai], vals[j])
				}
			}
		case spec.evalI != nil:
			vals, err := spec.evalI(st.e, b, sel)
			if err != nil {
				return err
			}
			upd := spec.updI
			for j, g := range grps {
				if vl == nil || vl[j] {
					upd(g.accs[ai], vals[j])
				}
			}
		case spec.evalS != nil:
			vals, err := spec.evalS(st.e, b, sel)
			if err != nil {
				return err
			}
			upd := spec.updS
			for j, g := range grps {
				if vl == nil || vl[j] {
					upd(g.accs[ai], vals[j])
				}
			}
		default:
			if spec.evalDiscard != nil {
				if err := spec.evalDiscard(st.e, b, sel); err != nil {
					return err
				}
			}
			upd := spec.updN
			for j, g := range grps {
				if vl == nil || vl[j] {
					upd(g.accs[ai], 1)
				}
			}
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
	ln, err := p.lane.bound(env)
	if err != nil {
		return nil, err
	}
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
		ln.native = ln.native || spec.bind == nil
	}
	if len(groupIdx) > 0 {
		ln.bindKeyFill(schema, groupIdx, !lw.oracle)
	} else if len(specs) == 1 {
		// Fused filter+aggregate: single aggregate over a raw column lane
		// (or a plain count) with no grouping.
		spec := specs[0]
		countOnly := spec.updN != nil && spec.evalDiscard == nil &&
			spec.validV == nil && spec.evalF == nil && spec.evalI == nil && spec.evalS == nil
		if spec.fusedF != nil || spec.fusedI != nil || countOnly {
			ln.fused = spec
		}
	}
	ln.prog = lw.bc.prog
	return ln, nil
}
