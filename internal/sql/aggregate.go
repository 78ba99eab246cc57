package sql

import (
	"fmt"
	"math"

	"madlib/internal/core"
	"madlib/internal/engine"
)

// The built-in aggregates. Each is one accumulator per argument lane
// kind — an init, two lane folds, a merge and a final function, the
// paper's transition/merge/final triple (§3.1.1) with the transition in
// two shapes: fold, which folds a batch's lane into one state (an
// ungrouped aggregate), and foldG, which folds value j into the state of
// row j's group in a morsel's column of per-group states (the grouped
// executor). Lowering (aggregate, below) decides only how the argument
// lane is made: by the argument's native column kernel
// (compile_batch.go) or by its compiled row closure run over the
// selection vector. Whichever made it, the same accumulator folds it, so
// the two lowerings agree bit for bit and fail alike: an argument's
// evaluation error aborts its morsel on both.

// aggAcc is one aggregate's accumulator over argument values of type T:
// float64, int64, string and bool lanes from typed arguments; any from
// boxed ones (bool min/max, Vector arguments and arguments typed only at
// run time, whose NULLs arrive as nil); int32 for count's argument-free
// lane, the selection itself. Its states live in the column newCol
// makes; typedAcc builds an aggAcc from folds over a typed state.
type aggAcc[T any] struct {
	newCol func() aggCol
	// fold folds vals in order into state 0 of the column. A non-nil
	// mask (the argument's validity lane, or the fused path's predicate
	// lane) folds only the positions where it is true; nil folds every
	// value.
	fold func(c aggCol, vals []T, mask []bool) error
	// foldG folds vals[j] into state ids[j], in order, under the same
	// mask.
	foldG func(c aggCol, ids []int32, vals []T, mask []bool) error
	// final is the result of the column's state g.
	final func(c aggCol, g int) (any, error)
}

// aggCol is one aggregate's states in a morsel's group table, state g
// being group g's: a typed column per accumulator (count's int64s, sum's
// numAccStates, min's extremeStates), a boxed one for madlib aggregates.
type aggCol interface {
	// grow appends initial states until the column holds n.
	grow(n int)
	// mergeFrom merges each state j of src, the same aggregate's column
	// in a later morsel, into state gs[j], in order, moving it over when
	// gs[j] is a new state (the column's length).
	mergeFrom(src aggCol, gs []int32)
	// reset empties the column for reuse without pinning its states.
	reset()
}

// stateCol is the aggCol of states of type S.
type stateCol[S any] struct {
	sts   []S
	init  func() S
	merge func(a, b S) S
}

func (c *stateCol[S]) grow(n int) {
	for len(c.sts) < n {
		c.sts = append(c.sts, c.init())
	}
}

func (c *stateCol[S]) mergeFrom(src aggCol, gs []int32) {
	for j, s := range src.(*stateCol[S]).sts {
		if g := int(gs[j]); g < len(c.sts) {
			c.sts[g] = c.merge(c.sts[g], s)
		} else {
			c.sts = append(c.sts, s)
		}
	}
}

func (c *stateCol[S]) reset() {
	clear(c.sts)
	c.sts = c.sts[:0]
}

// typedAcc is an accumulator's typed form, over states of type S.
type typedAcc[T, S any] struct {
	init  func() S
	fold  func(s *S, vals []T, mask []bool) error
	foldG func(sts []S, ids []int32, vals []T, mask []bool) error
	merge func(a, b S) S
	final func(s S) (any, error)
}

func (a typedAcc[T, S]) acc() aggAcc[T] {
	return aggAcc[T]{
		newCol: func() aggCol { return &stateCol[S]{init: a.init, merge: a.merge} },
		fold:   func(c aggCol, vals []T, mask []bool) error { return a.fold(&c.(*stateCol[S]).sts[0], vals, mask) },
		foldG: func(c aggCol, ids []int32, vals []T, mask []bool) error {
			return a.foldG(c.(*stateCol[S]).sts, ids, vals, mask)
		},
		final: func(c aggCol, g int) (any, error) { return a.final(c.(*stateCol[S]).sts[g]) },
	}
}

// boxedAcc is an accumulator over a boxed lane: upd folds one value,
// once per unmasked value in both lane folds, stopping at the first
// error.
func boxedAcc[S any](init func() S, upd func(s *S, v any) error, merge func(a, b S) S, final func(S) (any, error)) aggAcc[any] {
	return typedAcc[any, S]{init: init, merge: merge, final: final,
		fold: func(s *S, vals []any, mask []bool) error {
			for j, v := range vals {
				if mask == nil || mask[j] {
					if err := upd(s, v); err != nil {
						return err
					}
				}
			}
			return nil
		},
		foldG: func(sts []S, ids []int32, vals []any, mask []bool) error {
			for j, v := range vals {
				if mask == nil || mask[j] {
					if err := upd(&sts[ids[j]], v); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}.acc()
}

func zero[S any]() (s S) { return s }

func addCounts(a, b int64) int64 { return a + b }

func finalCount(n int64) (any, error) { return n, nil }

// countAcc counts the (unmasked) positions of a typed lane: rows for
// count(*), non-NULL values for count(expr), whose lane is still
// evaluated so its errors surface.
func countAcc[T any]() aggAcc[T] {
	return typedAcc[T, int64]{
		init: zero[int64],
		fold: func(s *int64, vals []T, mask []bool) error {
			n := int64(len(vals))
			if mask != nil {
				n = 0
				for _, ok := range mask {
					if ok {
						n++
					}
				}
			}
			*s += n
			return nil
		},
		foldG: func(sts []int64, ids []int32, _ []T, mask []bool) error {
			for j, g := range ids {
				if mask == nil || mask[j] {
					sts[g]++
				}
			}
			return nil
		},
		merge: addCounts,
		final: finalCount,
	}.acc()
}

// countAnyAcc counts the non-NULL values of a boxed lane.
func countAnyAcc() aggAcc[any] {
	return boxedAcc(zero[int64], func(s *int64, v any) error {
		if v != nil {
			*s++
		}
		return nil
	}, addCounts, finalCount)
}

// extremeState is min/max's accumulator over a typed lane. Ints never
// round-trip through float64, which would lose precision above 2^53.
type extremeState[T float64 | int64 | string] struct {
	val  T
	seen bool
}

func extremeAcc[T float64 | int64 | string](wantLess bool) aggAcc[T] {
	return typedAcc[T, extremeState[T]]{
		init: zero[extremeState[T]],
		fold: func(s *extremeState[T], vals []T, mask []bool) error {
			for j, v := range vals {
				if mask != nil && !mask[j] {
					continue
				}
				if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
					s.val, s.seen = v, true
				}
			}
			return nil
		},
		foldG: func(sts []extremeState[T], ids []int32, vals []T, mask []bool) error {
			for j, v := range vals {
				if mask != nil && !mask[j] {
					continue
				}
				if s := &sts[ids[j]]; !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
					s.val, s.seen = v, true
				}
			}
			return nil
		},
		merge: func(a, b extremeState[T]) extremeState[T] {
			if b.seen && (!a.seen || (wantLess && b.val < a.val) || (!wantLess && b.val > a.val)) {
				return b
			}
			return a
		},
		final: func(s extremeState[T]) (any, error) {
			if !s.seen {
				return nil, nil
			}
			return s.val, nil
		},
	}.acc()
}

// extremeAnyAcc is min/max over a boxed lane; its state is the extreme
// value so far, nil before the first non-NULL one.
func extremeAnyAcc(wantLess bool) aggAcc[any] {
	upd := func(s *any, v any) error {
		if v == nil {
			return nil // min/max skip NULLs
		}
		if *s == nil {
			*s = v
			return nil
		}
		c, err := compareValues(v, *s)
		if err != nil {
			return err
		}
		if (wantLess && c < 0) || (!wantLess && c > 0) {
			*s = v
		}
		return nil
	}
	// An argument's non-NULL values share one dynamic type (its operands
	// are typed columns, constants and per-execution parameters), and upd
	// has compared each morsel's values, so the comparison in merge cannot
	// fail; a pair it cannot order keeps the lower morsel's value.
	merge := func(a, b any) any {
		if b == nil {
			return a
		}
		if a == nil {
			return b
		}
		if c, err := compareValues(b, a); err == nil && ((wantLess && c < 0) || (!wantLess && c > 0)) {
			return b
		}
		return a
	}
	return boxedAcc(zero[any], upd, merge, func(s any) (any, error) { return s, nil })
}

// numAccState is the accumulator of sum/avg/variance/stddev (and of the
// window executor's running sum/avg): enough moments for all four.
type numAccState struct {
	n     int64
	sum   float64
	sumSq float64
	// intOnly tracks whether every input was an int64, so sum can stay
	// integral like SQL's sum(bigint).
	intOnly bool
	sumInt  int64
}

func intOnlyNumAcc() numAccState { return numAccState{intOnly: true} }

func numAccF(name string) aggAcc[float64] {
	return typedAcc[float64, numAccState]{
		init: zero[numAccState],
		fold: func(s *numAccState, vals []float64, mask []bool) error {
			if mask == nil {
				for _, v := range vals {
					s.sum += v
					s.sumSq += v * v
				}
				s.n += int64(len(vals))
				return nil
			}
			for j, v := range vals {
				if mask[j] {
					s.sum += v
					s.sumSq += v * v
					s.n++
				}
			}
			return nil
		},
		foldG: func(sts []numAccState, ids []int32, vals []float64, mask []bool) error {
			for j, v := range vals {
				if mask == nil || mask[j] {
					s := &sts[ids[j]]
					s.sum += v
					s.sumSq += v * v
					s.n++
				}
			}
			return nil
		},
		merge: mergeNumAcc,
		final: numAccFinal(name),
	}.acc()
}

func numAccI(name string) aggAcc[int64] {
	return typedAcc[int64, numAccState]{
		init: intOnlyNumAcc,
		fold: func(s *numAccState, vals []int64, mask []bool) error {
			if mask == nil {
				for _, v := range vals {
					f := float64(v)
					s.sumInt += v
					s.sum += f
					s.sumSq += f * f
				}
				s.n += int64(len(vals))
				return nil
			}
			for j, v := range vals {
				if mask[j] {
					f := float64(v)
					s.sumInt += v
					s.sum += f
					s.sumSq += f * f
					s.n++
				}
			}
			return nil
		},
		foldG: func(sts []numAccState, ids []int32, vals []int64, mask []bool) error {
			for j, v := range vals {
				if mask == nil || mask[j] {
					s, f := &sts[ids[j]], float64(v)
					s.sumInt += v
					s.sum += f
					s.sumSq += f * f
					s.n++
				}
			}
			return nil
		},
		merge: mergeNumAcc,
		final: numAccFinal(name),
	}.acc()
}

func numAccAny(name string) aggAcc[any] {
	return boxedAcc(intOnlyNumAcc, func(s *numAccState, v any) error { return numAccAdd(s, name, v) },
		mergeNumAcc, numAccFinal(name))
}

// numAccAdd folds one boxed value into s: NULL is skipped, an int keeps
// sum integral, anything else non-numeric is an error of aggregate name.
func numAccAdd(s *numAccState, name string, v any) error {
	switch x := v.(type) {
	case nil:
		return nil
	case int64:
		s.addInt(x)
		return nil
	}
	f, ok := toFloat(v)
	if !ok {
		return execErrf("%s: argument is %s, not numeric", name, valueTypeName(v))
	}
	s.addFloat(f)
	return nil
}

// addInt and addFloat fold one value of a typed lane, as numAccAdd folds
// it boxed.
func (s *numAccState) addInt(i int64) {
	s.sumInt += i
	s.add(float64(i))
}

func (s *numAccState) addFloat(f float64) {
	s.intOnly = false
	s.add(f)
}

func (s *numAccState) add(f float64) {
	s.n++
	s.sum += f
	s.sumSq += f * f
}

func mergeNumAcc(a, b numAccState) numAccState {
	a.n += b.n
	a.sum += b.sum
	a.sumSq += b.sumSq
	a.sumInt += b.sumInt
	a.intOnly = a.intOnly && b.intOnly
	return a
}

// numAccFinal finalizes the numeric accumulator for one of
// sum/avg/variance/stddev.
func numAccFinal(name string) func(numAccState) (any, error) {
	return func(st numAccState) (any, error) {
		if st.n == 0 {
			return nil, nil // SQL aggregates are NULL over no rows
		}
		switch name {
		case "sum":
			if st.intOnly {
				return st.sumInt, nil
			}
			return st.sum, nil
		case "avg":
			return st.sum / float64(st.n), nil
		}
		if st.n < 2 {
			return nil, nil
		}
		mean := st.sum / float64(st.n)
		variance := (st.sumSq - float64(st.n)*mean*mean) / float64(st.n-1)
		if name == "stddev" {
			return math.Sqrt(variance), nil
		}
		return variance, nil
	}
}

// Aggregate name's accumulator per lane kind. Planning has rejected the
// pairs with no fold (sum over text), so accS's ok=false only tells the
// native lowering to leave the call alone.

func accF(name string) aggAcc[float64] {
	switch name {
	case "count":
		return countAcc[float64]()
	case "min", "max":
		return extremeAcc[float64](name == "min")
	}
	return numAccF(name)
}

func accI(name string) aggAcc[int64] {
	switch name {
	case "count":
		return countAcc[int64]()
	case "min", "max":
		return extremeAcc[int64](name == "min")
	}
	return numAccI(name)
}

func accS(name string) (aggAcc[string], bool) {
	switch name {
	case "count":
		return countAcc[string](), true
	case "min", "max":
		return extremeAcc[string](name == "min"), true
	}
	return aggAcc[string]{}, false
}

func accA(name string) aggAcc[any] {
	switch name {
	case "count":
		return countAnyAcc()
	case "min", "max":
		return extremeAnyAcc(name == "min")
	}
	return numAccAny(name)
}

// batchAggSpec is one aggregate call lowered for the batch executor:
// the state column its morsel states keep and the fold that feeds it one
// batch's selected rows.
type batchAggSpec struct {
	newCol func() aggCol
	// fold folds the selected rows in row order: into state 0 when ids is
	// nil (an ungrouped aggregate), else row j into state ids[j].
	fold  func(e *batchEval, b engine.ColBatch, sel selVec, c aggCol, ids []int32) error
	final func(c aggCol, g int) (any, error)
	// numCol, when positive, is 1 + the bare column whose numeric state
	// the call folds. sum, avg, variance and stddev keep the same state,
	// so a statement's calls of them over one column fold one state
	// column and share it, each with its own final (planAggLane).
	numCol int
	// fused, when non-nil, folds the whole batch's raw argument lane (a
	// bare NULL-free column, or count's) against the predicate's keep
	// lane, nil meaning every row: planAggLane's single-pass path for an
	// ungrouped query with this one aggregate.
	fused func(e *batchEval, b engine.ColBatch, keep []bool, c aggCol) error
	// native reports whether the argument lane is made by a column
	// kernel rather than by the argument's row closure.
	native bool
}

// bindLane makes spec fold lane into acc: valid, when non-nil, is the
// argument's validity lane (it reads the padded side of a LEFT JOIN) and
// masks the fold; raw, when non-nil, is the argument's lane over a whole
// batch and enables the fused path.
func bindLane[T any](spec *batchAggSpec, lane laneEval[T], valid laneEval[bool], raw func(e *batchEval, b engine.ColBatch) []T, acc aggAcc[T]) *batchAggSpec {
	spec.newCol, spec.final = acc.newCol, acc.final
	spec.fold = func(e *batchEval, b engine.ColBatch, sel selVec, c aggCol, ids []int32) error {
		var mask []bool
		var err error
		if valid != nil {
			if mask, err = valid(e, b, sel); err != nil {
				return err
			}
		}
		vals, err := lane(e, b, sel)
		switch {
		case err != nil:
			return err
		case ids == nil:
			return acc.fold(c, vals, mask)
		}
		return acc.foldG(c, ids, vals, mask)
	}
	if raw != nil {
		spec.fused = func(e *batchEval, b engine.ColBatch, keep []bool, c aggCol) error {
			return acc.fold(c, raw(e, b), keep)
		}
	}
	return spec
}

// selectionLane is count's lane when nothing about the argument can
// fail: the selection itself.
func selectionLane(_ *batchEval, _ engine.ColBatch, sel selVec) ([]int32, error) { return sel, nil }

// rowLane runs an argument's row closure over the selection into a
// scratch lane.
func rowLane[T any](fn func(engine.Row, *execEnv) (T, error), scratch func(e *batchEval, n int) []T) laneEval[T] {
	return func(e *batchEval, b engine.ColBatch, sel selVec) ([]T, error) {
		out := scratch(e, len(sel))
		for j, idx := range sel {
			v, err := fn(b.Row(int(idx)), e.env)
			if err != nil {
				return nil, err
			}
			out[j] = v
		}
		return out, nil
	}
}

// aggregate lowers one aggregate call. A built-in call type-checks
// through its row closure (every plan-time error comes from there),
// then takes its argument's native lane when there is one and otherwise
// the closure's. A registered madlib aggregate is built once here and
// folds whole rows through its own transition function.
func (lw *lowering) aggregate(call *FuncCall) (*batchAggSpec, error) {
	if call.Schema != "" || !builtinAggs[call.Name] {
		return madlibAggregate(call, lw.cc)
	}
	name := call.Name
	var arg *compiled
	if call.Star {
		if name != "count" {
			return nil, execErrf("%s(*) is not supported; only count(*)", name)
		}
	} else {
		if len(call.Args) != 1 {
			return nil, execErrf("%s expects exactly one argument", name)
		}
		var err error
		if arg, err = compileExpr(call.Args[0], lw.cc); err != nil {
			return nil, err
		}
		switch name {
		case "sum", "avg", "variance", "stddev":
			if arg.kind != ckAny && !arg.isNumeric() {
				return nil, execErrf("%s: argument is %s, not numeric", name, arg.kind)
			}
		}
	}
	if !lw.oracle {
		if spec, ok := nativeAggregate(call, lw.bc); ok {
			return spec, nil
		}
	}
	return closureAggregate(name, arg, lw.bc), nil
}

// nativeAggregate lowers a built-in call whose argument has a column
// kernel of a kind its aggregate folds; ok=false (bool min/max, Vector
// operands, $n arithmetic) leaves the call to its row closure.
func nativeAggregate(call *FuncCall, bc *batchCompiler) (*batchAggSpec, bool) {
	spec := &batchAggSpec{native: true}
	whole := func(e *batchEval, b engine.ColBatch) []int32 { return e.identSel(b.Len()) }
	if call.Star {
		return bindLane(spec, selectionLane, nil, whole, countAcc[int32]()), true
	}
	arg, ok := compileBatchExpr(call.Args[0], bc)
	if !ok || arg.scalar != nil {
		return nil, false
	}
	var valid laneEval[bool]
	if arg.valid != nil {
		valid = kernelLane(arg.valid, bc.boolLane())
	}
	// col is the argument's column when it is a bare NULL-free one: its
	// raw storage lane is the argument lane of a whole batch.
	col, bare, numCol := -1, false, 0
	name := call.Name
	if cr, ok := call.Args[0].(*ColumnRef); ok {
		bare = true
		if ci, ok := bc.colIdx[cr.Name]; ok {
			if name != "count" && name != "min" && name != "max" {
				numCol = ci + 1
			}
			if bc.nullable == nil || !bc.nullable[ci] {
				col = ci
			}
		}
	}
	switch {
	case name == "count" && (arg.isConst || bare):
		// Constants and bare columns cannot fail (storage holds no errors
		// and a NULL-padded gather is fault-free), so count counts the
		// selection, masked by the argument's validity.
		if valid != nil {
			whole = nil
		}
		return bindLane(spec, selectionLane, valid, whole, countAcc[int32]()), true
	case arg.kind == ckFloat:
		var raw func(e *batchEval, b engine.ColBatch) []float64
		if col >= 0 {
			raw = func(_ *batchEval, b engine.ColBatch) []float64 { return b.Floats(col) }
		}
		spec.numCol = numCol
		return bindLane(spec, kernelLane(arg.f, bc.floatLane()), valid, raw, accF(name)), true
	case arg.kind == ckInt:
		var raw func(e *batchEval, b engine.ColBatch) []int64
		if col >= 0 {
			raw = func(_ *batchEval, b engine.ColBatch) []int64 { return b.Ints(col) }
		}
		spec.numCol = numCol
		return bindLane(spec, kernelLane(arg.i, bc.intLane()), valid, raw, accI(name)), true
	case arg.kind == ckStr:
		if acc, ok := accS(name); ok {
			return bindLane(spec, kernelLane(arg.s, bc.strLane()), valid, nil, acc), true
		}
	case arg.kind == ckBool && name == "count":
		return bindLane(spec, kernelLane(arg.b, bc.boolLane()), valid, nil, countAcc[bool]()), true
	}
	return nil, false
}

// closureAggregate lowers a built-in call to its argument's row closure
// run over the selection: a typed lane when the closure is typed, a
// boxed one for bool, Vector and run-time-typed arguments (count's too:
// it counts the non-NULL values).
func closureAggregate(name string, arg *compiled, bc *batchCompiler) *batchAggSpec {
	spec := &batchAggSpec{}
	if arg == nil {
		return bindLane(spec, selectionLane, nil, nil, countAcc[int32]())
	}
	if name != "count" {
		switch arg.kind {
		case ckFloat:
			return bindLane(spec, rowLane(arg.f, bc.floatLane()), nil, nil, accF(name))
		case ckInt:
			return bindLane(spec, rowLane(arg.i, bc.intLane()), nil, nil, accI(name))
		case ckStr:
			acc, _ := accS(name)
			return bindLane(spec, rowLane(arg.s, bc.strLane()), nil, nil, acc)
		}
	}
	return bindLane(spec, rowLane(arg.a, bc.anyLane()), nil, nil, accA(name))
}

// madlibAggregate builds a registered madlib aggregate once, at plan
// time: its arguments are fixed then ($n parameters are rejected), so
// the instance is reusable — Init creates fresh state per run. Its
// rows fold through its own transition function, which keeps
// evaluation errors in its state until final.
func madlibAggregate(call *FuncCall, cc *compileCtx) (*batchAggSpec, error) {
	f, _ := core.LookupSQLFunc(call.Name)
	args, err := resolveFuncArgs(call, cc)
	if err != nil {
		return nil, err
	}
	agg, err := f.BuildAggregate(cc.schema, args)
	if err != nil {
		return nil, fmt.Errorf("sql: madlib.%s: %w", call.Name, err)
	}
	return &batchAggSpec{
		newCol: func() aggCol { return &stateCol[any]{init: agg.Init, merge: agg.Merge} },
		final:  func(c aggCol, g int) (any, error) { return agg.Final(c.(*stateCol[any]).sts[g]) },
		fold: func(_ *batchEval, b engine.ColBatch, sel selVec, c aggCol, ids []int32) error {
			sts := c.(*stateCol[any]).sts
			if ids == nil {
				acc := sts[0]
				for _, idx := range sel {
					acc = agg.Transition(acc, b.Row(int(idx)))
				}
				sts[0] = acc
				return nil
			}
			for j, idx := range sel {
				sts[ids[j]] = agg.Transition(sts[ids[j]], b.Row(int(idx)))
			}
			return nil
		},
	}, nil
}
