package sql

import (
	"fmt"
	"math"

	"madlib/internal/core"
	"madlib/internal/engine"
)

// The built-in aggregates. Each is one accumulator per argument lane
// kind — an init, a lane fold, a per-row update, a merge and a final
// function, the paper's transition/merge/final triple (§3.1.1) with the
// transition in two shapes: the lane fold for an ungrouped batch and
// the per-row update for the grouped executor, which folds each
// selected row into its own group's state. Lowering (aggregate, below)
// decides only how the argument lane is made: by the argument's native
// column kernel (compile_batch.go) or by its compiled row closure run
// over the selection vector. Whichever made it, the same accumulator
// folds it, so the two lowerings agree bit for bit and fail alike: an
// argument's evaluation error aborts its morsel on both.

// aggAcc is one aggregate's accumulator over argument values of type T:
// float64, int64, string and bool lanes from typed arguments; any from
// boxed ones (bool min/max, Vector arguments and arguments typed only at
// run time, whose NULLs arrive as nil); int32 for count's argument-free
// lane, the selection itself.
type aggAcc[T any] struct {
	init func() any
	// fold folds vals in order. A non-nil mask (the argument's validity
	// lane, or the fused path's predicate lane) folds only the positions
	// where it is true; nil folds every value.
	fold func(st any, vals []T, mask []bool) error
	// upd folds one value.
	upd   func(st any, v T) error
	merge func(a, b any) any
	final func(st any) (any, error)
}

// foldEach is the lane fold of a boxed accumulator: upd per unmasked
// value, stopping at the first error.
func foldEach[T any](upd func(st any, v T) error) func(st any, vals []T, mask []bool) error {
	return func(st any, vals []T, mask []bool) error {
		for j, v := range vals {
			if mask == nil || mask[j] {
				if err := upd(st, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// countState is count's accumulator.
type countState struct{ n int64 }

func mergeCount(a, b any) any {
	sa := a.(*countState)
	sa.n += b.(*countState).n
	return sa
}

func finalCount(st any) (any, error) { return st.(*countState).n, nil }

// countAcc counts the (unmasked) positions of a typed lane: rows for
// count(*), non-NULL values for count(expr), whose lane is still
// evaluated so its errors surface.
func countAcc[T any]() aggAcc[T] {
	return aggAcc[T]{
		init: func() any { return &countState{} },
		fold: func(st any, vals []T, mask []bool) error {
			n := int64(len(vals))
			if mask != nil {
				n = 0
				for _, ok := range mask {
					if ok {
						n++
					}
				}
			}
			st.(*countState).n += n
			return nil
		},
		upd:   func(st any, _ T) error { st.(*countState).n++; return nil },
		merge: mergeCount,
		final: finalCount,
	}
}

// countAnyAcc counts the non-NULL values of a boxed lane.
func countAnyAcc() aggAcc[any] {
	upd := func(st any, v any) error {
		if v != nil {
			st.(*countState).n++
		}
		return nil
	}
	return aggAcc[any]{init: func() any { return &countState{} }, fold: foldEach(upd), upd: upd,
		merge: mergeCount, final: finalCount}
}

// extremeState is min/max's accumulator over a typed lane. Ints never
// round-trip through float64, which would lose precision above 2^53.
type extremeState[T float64 | int64 | string] struct {
	val  T
	seen bool
}

func extremeAcc[T float64 | int64 | string](wantLess bool) aggAcc[T] {
	return aggAcc[T]{
		init: func() any { return &extremeState[T]{} },
		fold: func(st any, vals []T, mask []bool) error {
			s := st.(*extremeState[T])
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
		upd: func(st any, v T) error {
			s := st.(*extremeState[T])
			if !s.seen || (wantLess && v < s.val) || (!wantLess && v > s.val) {
				s.val, s.seen = v, true
			}
			return nil
		},
		merge: func(a, b any) any {
			sa, sb := a.(*extremeState[T]), b.(*extremeState[T])
			if sb.seen && (!sa.seen || (wantLess && sb.val < sa.val) || (!wantLess && sb.val > sa.val)) {
				sa.val, sa.seen = sb.val, true
			}
			return sa
		},
		final: func(st any) (any, error) {
			s := st.(*extremeState[T])
			if !s.seen {
				return nil, nil
			}
			return s.val, nil
		},
	}
}

// minmaxState is min/max's accumulator over a boxed lane.
type minmaxState struct{ val any }

func extremeAnyAcc(wantLess bool) aggAcc[any] {
	upd := func(st any, v any) error {
		s := st.(*minmaxState)
		if v == nil {
			return nil // min/max skip NULLs
		}
		if s.val == nil {
			s.val = v
			return nil
		}
		c, err := compareValues(v, s.val)
		if err != nil {
			return err
		}
		if (wantLess && c < 0) || (!wantLess && c > 0) {
			s.val = v
		}
		return nil
	}
	return aggAcc[any]{
		init: func() any { return &minmaxState{} },
		fold: foldEach(upd),
		upd:  upd,
		// An argument's non-NULL values share one dynamic type (its
		// operands are typed columns, constants and per-execution
		// parameters), and upd has compared each morsel's values, so the
		// comparison here cannot fail; a pair it cannot order keeps the
		// lower morsel's value.
		merge: func(a, b any) any {
			sa, sb := a.(*minmaxState), b.(*minmaxState)
			if sb.val == nil {
				return sa
			}
			if sa.val == nil {
				return sb
			}
			if c, err := compareValues(sb.val, sa.val); err == nil && ((wantLess && c < 0) || (!wantLess && c > 0)) {
				sa.val = sb.val
			}
			return sa
		},
		final: func(st any) (any, error) { return st.(*minmaxState).val, nil },
	}
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

func numAccF(name string) aggAcc[float64] {
	return aggAcc[float64]{
		init: func() any { return &numAccState{} },
		fold: func(st any, vals []float64, mask []bool) error {
			s := st.(*numAccState)
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
		upd: func(st any, v float64) error {
			s := st.(*numAccState)
			s.sum += v
			s.sumSq += v * v
			s.n++
			return nil
		},
		merge: mergeNumAcc,
		final: numAccFinal(name),
	}
}

func numAccI(name string) aggAcc[int64] {
	return aggAcc[int64]{
		init: func() any { return &numAccState{intOnly: true} },
		fold: func(st any, vals []int64, mask []bool) error {
			s := st.(*numAccState)
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
		upd: func(st any, v int64) error {
			s := st.(*numAccState)
			f := float64(v)
			s.sumInt += v
			s.sum += f
			s.sumSq += f * f
			s.n++
			return nil
		},
		merge: mergeNumAcc,
		final: numAccFinal(name),
	}
}

func numAccAny(name string) aggAcc[any] {
	upd := func(st any, v any) error { return numAccAdd(st.(*numAccState), name, v) }
	return aggAcc[any]{init: func() any { return &numAccState{intOnly: true} }, fold: foldEach(upd), upd: upd,
		merge: mergeNumAcc, final: numAccFinal(name)}
}

// numAccAdd folds one boxed value into s: NULL is skipped, an int keeps
// sum integral, anything else non-numeric is an error of aggregate name.
func numAccAdd(s *numAccState, name string, v any) error {
	if v == nil {
		return nil
	}
	f, ok := toFloat(v)
	if !ok {
		return execErrf("%s: argument is %s, not numeric", name, valueTypeName(v))
	}
	if i, ok := v.(int64); ok {
		s.sumInt += i
	} else {
		s.intOnly = false
	}
	s.n++
	s.sum += f
	s.sumSq += f * f
	return nil
}

func mergeNumAcc(a, b any) any {
	sa, sb := a.(*numAccState), b.(*numAccState)
	sa.n += sb.n
	sa.sum += sb.sum
	sa.sumSq += sb.sumSq
	sa.sumInt += sb.sumInt
	sa.intOnly = sa.intOnly && sb.intOnly
	return sa
}

// numAccFinal finalizes the numeric accumulator for one of
// sum/avg/variance/stddev.
func numAccFinal(name string) func(any) (any, error) {
	return func(s any) (any, error) {
		st := s.(*numAccState)
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
// its accumulator's init/merge/final and the folds that feed it one
// batch's selected rows — into one state (fold) or into each row's
// group state (foldGroups, which the grouped executor calls with the
// group of every selected row).
type batchAggSpec struct {
	init       func() any
	merge      func(a, b any) any
	final      func(st any) (any, error)
	fold       func(e *batchEval, b engine.ColBatch, sel selVec, st *any) error
	foldGroups func(e *batchEval, b engine.ColBatch, sel selVec, grps []*batchGroup, ai int) error
	// fused, when non-nil, folds the whole batch's raw argument lane (a
	// bare NULL-free column, or count's) against the predicate's keep
	// lane, nil meaning every row: planAggLane's single-pass path for an
	// ungrouped query with this one aggregate.
	fused func(e *batchEval, b engine.ColBatch, keep []bool, st any) error
	// native reports whether the argument lane is made by a column
	// kernel rather than by the argument's row closure.
	native bool
}

// bindLane makes spec fold lane into acc: valid, when non-nil, is the
// argument's validity lane (it reads the padded side of a LEFT JOIN) and
// masks the fold; raw, when non-nil, is the argument's lane over a whole
// batch and enables the fused path.
func bindLane[T any](spec *batchAggSpec, lane laneEval[T], valid laneEval[bool], raw func(e *batchEval, b engine.ColBatch) []T, acc aggAcc[T]) *batchAggSpec {
	spec.init, spec.merge, spec.final = acc.init, acc.merge, acc.final
	eval := func(e *batchEval, b engine.ColBatch, sel selVec) (vals []T, mask []bool, err error) {
		if valid != nil {
			if mask, err = valid(e, b, sel); err != nil {
				return nil, nil, err
			}
		}
		vals, err = lane(e, b, sel)
		return vals, mask, err
	}
	spec.fold = func(e *batchEval, b engine.ColBatch, sel selVec, st *any) error {
		vals, mask, err := eval(e, b, sel)
		if err != nil {
			return err
		}
		return acc.fold(*st, vals, mask)
	}
	spec.foldGroups = func(e *batchEval, b engine.ColBatch, sel selVec, grps []*batchGroup, ai int) error {
		vals, mask, err := eval(e, b, sel)
		if err != nil {
			return err
		}
		upd := acc.upd
		for j, g := range grps {
			if mask == nil || mask[j] {
				if err := upd(g.accs[ai], vals[j]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if raw != nil {
		spec.fused = func(e *batchEval, b engine.ColBatch, keep []bool, st any) error {
			return acc.fold(st, raw(e, b), keep)
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
// operands, $n arithmetic, scalar functions over possibly-NULL
// arguments) leaves the call to its row closure.
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
	col, bare := -1, false
	if cr, ok := call.Args[0].(*ColumnRef); ok {
		bare = true
		if ci, ok := bc.colIdx[cr.Name]; ok && (bc.nullable == nil || !bc.nullable[ci]) {
			col = ci
		}
	}
	name := call.Name
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
		return bindLane(spec, kernelLane(arg.f, bc.floatLane()), valid, raw, accF(name)), true
	case arg.kind == ckInt:
		var raw func(e *batchEval, b engine.ColBatch) []int64
		if col >= 0 {
			raw = func(_ *batchEval, b engine.ColBatch) []int64 { return b.Ints(col) }
		}
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
		init: agg.Init, merge: agg.Merge, final: agg.Final,
		fold: func(_ *batchEval, b engine.ColBatch, sel selVec, st *any) error {
			acc := *st
			for _, idx := range sel {
				acc = agg.Transition(acc, b.Row(int(idx)))
			}
			*st = acc
			return nil
		},
		foldGroups: func(_ *batchEval, b engine.ColBatch, sel selVec, grps []*batchGroup, ai int) error {
			for j, g := range grps {
				g.accs[ai] = agg.Transition(g.accs[ai], b.Row(int(sel[j])))
			}
			return nil
		},
	}, nil
}
