package sql

import (
	"math"
	"strings"
	"sync"

	"madlib/internal/engine"
)

// This file is the planner's second lowering target: column-batch
// kernels. Where compile.go lowers an expression to a per-row closure,
// this lowering produces kernels that fill a whole output lane
// ([]float64 / []int64 / []string / []bool) for the *selected* rows of
// one engine.ColBatch in a single call, reading the segment's columnar
// storage directly. Selection vectors thread WHERE semantics through the
// pipeline: a kernel only ever evaluates rows that survived every
// enclosing filter, so error behavior (division by zero, AND/OR
// short-circuiting) matches the row lane exactly.
//
// Not every expression has a batch lowering — Vector-typed operands,
// madlib calls, and $n parameters outside comparison operands do not.
// compileBatch* functions therefore return ok=false rather than errors:
// the closure compile has already type-checked the expression, so a
// false here only means "this consumer runs its row closure inside the
// batch executor" (lowering, exec_batch.go), never "the query is
// invalid".

// selVec is a selection vector: the batch-local indices (0..Len-1) of
// the rows a kernel must evaluate, in row order.
type selVec = []int32

// Batch kernel signatures. out has len(sel); out[j] receives the value
// of row sel[j].
type laneKernel[T any] func(e *batchEval, b engine.ColBatch, sel selVec, out []T) error

type (
	fBatchKernel = laneKernel[float64]
	iBatchKernel = laneKernel[int64]
	sBatchKernel = laneKernel[string]
	bBatchKernel = laneKernel[bool]
)

// bcompiled is one expression lowered to the batch lane: its static kind
// and the kernel matching that kind. Compile-time constants additionally
// carry their folded value so parent kernels can specialize (col > 0.25
// compiles to one loop against a scalar, not a broadcast lane).
type bcompiled struct {
	kind ckind
	f    fBatchKernel
	i    iBatchKernel
	s    sBatchKernel
	b    bBatchKernel

	isConst bool
	cF      float64
	cI      int64

	// scalar, when non-nil, marks a per-execution scalar with no static
	// type: arithmetic over $n placeholders and constants only (a bare
	// $1, $1 + 20000). It is the expression's row closure, which reads no
	// row, so its values and errors are the row lane's. Only comparison
	// kernels can splice it in, evaluating it once per batch; any other
	// parent rejects the lowering.
	scalar func(env *execEnv) (any, error)

	// valid, when non-nil, fills a validity lane for the selected rows:
	// out[j] reports whether row sel[j] carries a real value rather than
	// NULL padding (a LEFT JOIN's unmatched right side). A nil valid
	// means the node can never be NULL. Value kernels of a node with
	// validity only guarantee meaningful output — and fault-freedom — on
	// valid rows; parents must mask or skip the rest. Validity collapses
	// at comparisons (NULL compares false, so the result is a valid
	// bool) and in predicate position (NULL is not true), mirroring the
	// row lane's collapsed three-valued logic.
	valid bBatchKernel
}

// constF returns the constant as float64 (ints widen).
func (c *bcompiled) constF() float64 {
	if c.kind == ckInt {
		return float64(c.cI)
	}
	return c.cF
}

// batchCompiler allocates scratch-lane slots during compilation. Each
// kernel node that needs a temporary lane reserves a slot index at
// compile time; at execution every segment instantiates one batchEval
// holding the actual backing arrays, so kernels are reentrant across
// segments and allocation-free across batches.
type batchCompiler struct {
	schema engine.Schema
	colIdx map[string]int
	prog   *batchProg
	// nullable marks columns that can be NULL at run time (the padded
	// right side of a LEFT JOIN); matchedIdx is the hidden Bool marker
	// column whose lane is those columns' validity bitmap. nil/-1 on
	// plain tables.
	nullable   []bool
	matchedIdx int
	// src mirrors compileCtx.src: the plan source (and thereby the engine
	// handle plus accumulated model dependencies) for madlib.predict.
	src *planSource
}

// batchProg records the scratch-slot footprint of a fully compiled batch
// pipeline; it is the factory for per-morsel batchEval instances. pool
// recycles its plan's per-morsel state (a morselScratch, or the
// aggregate executor's batchMorselState) and the scratch lanes in it
// across executions, so a cached plan's steady state allocates only its
// output.
type batchProg struct {
	nFloat, nInt, nStr, nBool, nAny, nSel int
	pool                                  sync.Pool
}

func newBatchCompiler(schema engine.Schema) *batchCompiler {
	return &batchCompiler{schema: schema, colIdx: colIndexMap(schema), prog: &batchProg{}, matchedIdx: -1}
}

func (bc *batchCompiler) floatSlot() int { s := bc.prog.nFloat; bc.prog.nFloat++; return s }
func (bc *batchCompiler) intSlot() int   { s := bc.prog.nInt; bc.prog.nInt++; return s }
func (bc *batchCompiler) strSlot() int   { s := bc.prog.nStr; bc.prog.nStr++; return s }
func (bc *batchCompiler) boolSlot() int  { s := bc.prog.nBool; bc.prog.nBool++; return s }
func (bc *batchCompiler) selSlot() int   { s := bc.prog.nSel; bc.prog.nSel++; return s }

// floatLane, intLane, strLane, boolLane and anyLane reserve a scratch
// slot and return the accessor of its lane.
func (bc *batchCompiler) floatLane() func(*batchEval, int) []float64 {
	slot := bc.floatSlot()
	return func(e *batchEval, n int) []float64 { return e.f(slot, n) }
}

func (bc *batchCompiler) intLane() func(*batchEval, int) []int64 {
	slot := bc.intSlot()
	return func(e *batchEval, n int) []int64 { return e.i(slot, n) }
}

func (bc *batchCompiler) strLane() func(*batchEval, int) []string {
	slot := bc.strSlot()
	return func(e *batchEval, n int) []string { return e.s(slot, n) }
}

func (bc *batchCompiler) boolLane() func(*batchEval, int) []bool {
	slot := bc.boolSlot()
	return func(e *batchEval, n int) []bool { return e.b(slot, n) }
}

func (bc *batchCompiler) anyLane() func(*batchEval, int) []any {
	slot := bc.prog.nAny
	bc.prog.nAny++
	return func(e *batchEval, n int) []any { return e.a(slot, n) }
}

// batchEval is the per-segment execution state of a batch pipeline: the
// bound parameter environment plus the scratch lanes reserved at compile
// time. Lanes are allocated on first use at BatchSize capacity and
// reused for every subsequent batch of the segment.
type batchEval struct {
	env   *execEnv
	ident []int32
	fs    [][]float64
	is    [][]int64
	ss    [][]string
	bs    [][]bool
	as    [][]any
	sels  [][]int32
}

func (p *batchProg) newEval(env *execEnv) *batchEval {
	return &batchEval{
		env:  env,
		fs:   make([][]float64, p.nFloat),
		is:   make([][]int64, p.nInt),
		ss:   make([][]string, p.nStr),
		bs:   make([][]bool, p.nBool),
		as:   make([][]any, p.nAny),
		sels: make([][]int32, p.nSel),
	}
}

// identSel returns the shared identity selection 0..n-1 (all rows of a
// batch selected). n never exceeds engine.BatchSize.
func (e *batchEval) identSel(n int) selVec {
	if e.ident == nil {
		e.ident = make([]int32, engine.BatchSize)
		for i := range e.ident {
			e.ident[i] = int32(i)
		}
	}
	return e.ident[:n]
}

func growLane[T any](lane []T, n int) []T {
	if cap(lane) < n {
		c := n
		if c < engine.BatchSize {
			c = engine.BatchSize
		}
		lane = make([]T, c)
	}
	return lane[:n]
}

func (e *batchEval) f(slot, n int) []float64 { e.fs[slot] = growLane(e.fs[slot], n); return e.fs[slot] }
func (e *batchEval) i(slot, n int) []int64   { e.is[slot] = growLane(e.is[slot], n); return e.is[slot] }
func (e *batchEval) s(slot, n int) []string  { e.ss[slot] = growLane(e.ss[slot], n); return e.ss[slot] }
func (e *batchEval) b(slot, n int) []bool    { e.bs[slot] = growLane(e.bs[slot], n); return e.bs[slot] }
func (e *batchEval) a(slot, n int) []any     { e.as[slot] = growLane(e.as[slot], n); return e.as[slot] }
func (e *batchEval) sel(slot, n int) []int32 {
	e.sels[slot] = growLane(e.sels[slot], n)
	return e.sels[slot]
}

// Constant constructors. Kernels broadcast for generic consumers; parents
// that can specialize read the folded value instead.

func bConstFloat(v float64) *bcompiled {
	return &bcompiled{kind: ckFloat, isConst: true, cF: v, f: broadcast(v)}
}

func bConstInt(v int64) *bcompiled {
	return &bcompiled{kind: ckInt, isConst: true, cI: v, i: broadcast(v)}
}

func bConstStr(v string) *bcompiled {
	return &bcompiled{kind: ckStr, isConst: true, s: broadcast(v)}
}

func bConstBool(v bool) *bcompiled {
	return &bcompiled{kind: ckBool, isConst: true, b: broadcast(v)}
}

func broadcast[T any](v T) laneKernel[T] {
	return func(_ *batchEval, _ engine.ColBatch, _ selVec, out []T) error {
		for j := range out {
			out[j] = v
		}
		return nil
	}
}

// bErrFloat/bErrInt produce kernels that fail whenever at least one row
// is selected — the batch form of a constant subexpression whose
// evaluation errors per row (e.g. 1/0): an empty selection must stay
// silent, exactly as the row lane never evaluates an unselected row.
func bErrFloat(err error) *bcompiled {
	return &bcompiled{kind: ckFloat, f: failing[float64](err)}
}

func bErrInt(err error) *bcompiled {
	return &bcompiled{kind: ckInt, i: failing[int64](err)}
}

func failing[T any](err error) laneKernel[T] {
	return func(_ *batchEval, _ engine.ColBatch, sel selVec, _ []T) error {
		if len(sel) == 0 {
			return nil
		}
		return err
	}
}

// asF adapts a numeric node to a float kernel, widening int lanes.
func (c *bcompiled) asF(bc *batchCompiler) fBatchKernel {
	if c.kind == ckFloat {
		return c.f
	}
	ik := c.i
	slot := bc.intSlot()
	return func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
		tmp := e.i(slot, len(sel))
		if err := ik(e, b, sel, tmp); err != nil {
			return err
		}
		for j, v := range tmp {
			out[j] = float64(v)
		}
		return nil
	}
}

// validAnd conjoins two validity kernels: the result row is valid iff
// both operands are. nil means always-valid and is absorbed.
func validAnd(l, r bBatchKernel, bc *batchCompiler) bBatchKernel {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	slot := bc.boolSlot()
	return func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
		if err := l(e, b, sel, out); err != nil {
			return err
		}
		tmp := e.b(slot, len(sel))
		if err := r(e, b, sel, tmp); err != nil {
			return err
		}
		for j := range out {
			out[j] = out[j] && tmp[j]
		}
		return nil
	}
}

// validSub evaluates valid over sel and splits it into the
// sub-selection of valid rows plus each one's position within sel; the
// shared sub-selection machinery of every NULL-aware kernel. Invalid
// rows are simply never evaluated — the batch analogue of the row
// lane returning nil before touching an operand — so guarded faults
// (NULL divisors, NULL-only groups) can never fire.
type validSub struct {
	valid           bBatchKernel
	vSlot, sub, pos int
}

func newValidSub(valid bBatchKernel, bc *batchCompiler) validSub {
	return validSub{valid: valid, vSlot: bc.boolSlot(), sub: bc.selSlot(), pos: bc.selSlot()}
}

func (vs validSub) split(e *batchEval, b engine.ColBatch, sel selVec) (sub, pos selVec, err error) {
	vl := e.b(vs.vSlot, len(sel))
	if err := vs.valid(e, b, sel, vl); err != nil {
		return nil, nil, err
	}
	sub = e.sel(vs.sub, len(sel))[:0]
	pos = e.sel(vs.pos, len(sel))[:0]
	for j, idx := range sel {
		if vl[j] {
			sub = append(sub, idx)
			pos = append(pos, int32(j))
		}
	}
	return sub, pos, nil
}

// wrapNullable rewrites a node's value kernel to evaluate only the
// valid sub-selection (scattering results back into place) and records
// the combined validity on the node. Output positions of invalid rows
// keep whatever the lane held — parents mask or skip them.
func wrapNullable(c *bcompiled, valid bBatchKernel, bc *batchCompiler) (*bcompiled, bool) {
	vs := newValidSub(valid, bc)
	switch c.kind {
	case ckFloat:
		return &bcompiled{kind: ckFloat, valid: valid, f: onValid(c.f, vs, bc.floatLane())}, true
	case ckInt:
		return &bcompiled{kind: ckInt, valid: valid, i: onValid(c.i, vs, bc.intLane())}, true
	}
	return nil, false
}

// onValid runs inner over the valid sub-selection only and scatters its
// results back into place.
func onValid[T any](inner laneKernel[T], vs validSub, lane func(*batchEval, int) []T) laneKernel[T] {
	return func(e *batchEval, b engine.ColBatch, sel selVec, out []T) error {
		sub, pos, err := vs.split(e, b, sel)
		if err != nil || len(sub) == 0 {
			return err
		}
		tmp := lane(e, len(sub))
		if err := inner(e, b, sub, tmp); err != nil {
			return err
		}
		for j2, p := range pos {
			out[p] = tmp[j2]
		}
		return nil
	}
}

// collapseBool lowers a possibly-NULL boolean node to a plain boolean
// in predicate position: NULL is not true, exactly as the row lane's
// asBool collapses nil to false.
func collapseBool(c *bcompiled, bc *batchCompiler) *bcompiled {
	if c.valid == nil {
		return c
	}
	inner, valid := c.b, c.valid
	slot := bc.boolSlot()
	return &bcompiled{kind: ckBool,
		b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
			if err := inner(e, b, sel, out); err != nil {
				return err
			}
			tmp := e.b(slot, len(sel))
			if err := valid(e, b, sel, tmp); err != nil {
				return err
			}
			for j := range out {
				out[j] = out[j] && tmp[j]
			}
			return nil
		}}
}

// compileBatchExpr lowers e to a batch kernel; ok=false means the
// expression has no batch lowering and its consumer takes the row
// closure instead.
func compileBatchExpr(e Expr, bc *batchCompiler) (*bcompiled, bool) {
	if isParamArith(e) && exprHasParam(e) {
		// The closure of a column-free expression never touches its row.
		c, err := compileExpr(e, newCompileCtx(nil))
		if err != nil {
			return nil, false
		}
		fn := c.a
		return &bcompiled{kind: ckAny, scalar: func(env *execEnv) (any, error) { return fn(engine.Row{}, env) }}, true
	}
	switch x := e.(type) {
	case *Literal:
		switch v := x.Val.(type) {
		case int64:
			return bConstInt(v), true
		case float64:
			return bConstFloat(v), true
		case string:
			return bConstStr(v), true
		case bool:
			return bConstBool(v), true
		}
		return nil, false
	case *ColumnRef:
		return compileBatchColumnRef(x, bc)
	case *Unary:
		return compileBatchUnary(x, bc)
	case *Binary:
		return compileBatchBinary(x, bc)
	case *FuncCall:
		return compileBatchFuncCall(x, bc)
	}
	return nil, false
}

// isParamArith reports whether e is built from $n placeholders, literals,
// negation and the arithmetic operators alone.
func isParamArith(e Expr) bool {
	switch x := e.(type) {
	case *Param, *Literal:
		return true
	case *Unary:
		return x.Op == "-" && isParamArith(x.X)
	case *Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%":
			return isParamArith(x.L) && isParamArith(x.R)
		}
	}
	return false
}

func compileBatchColumnRef(x *ColumnRef, bc *batchCompiler) (*bcompiled, bool) {
	ci, ok := bc.colIdx[x.Name]
	if !ok {
		return nil, false
	}
	c, ok := gatherColumn(bc.schema[ci].Kind, ci)
	if !ok {
		return nil, false
	}
	if bc.nullable != nil && bc.nullable[ci] {
		// NULL-padded column: the value gather stays as-is (padding holds
		// zero values that no consumer may observe) and the validity lane
		// is the matched marker's Bool lane.
		mi := bc.matchedIdx
		c.valid = gather(func(b engine.ColBatch) []bool { return b.ValidityFromBool(mi) })
	}
	return c, true
}

func gatherColumn(kind engine.Kind, ci int) (*bcompiled, bool) {
	switch kind {
	case engine.Float:
		return &bcompiled{kind: ckFloat, f: gather(func(b engine.ColBatch) []float64 { return b.Floats(ci) })}, true
	case engine.Int:
		return &bcompiled{kind: ckInt, i: gather(func(b engine.ColBatch) []int64 { return b.Ints(ci) })}, true
	case engine.String:
		return &bcompiled{kind: ckStr, s: gather(func(b engine.ColBatch) []string { return b.Strings(ci) })}, true
	case engine.Bool:
		return &bcompiled{kind: ckBool, b: gather(func(b engine.ColBatch) []bool { return b.Bools(ci) })}, true
	}
	// Vector columns have no lane kernel.
	return nil, false
}

// gather copies the selected rows of a batch's lane. Selection vectors
// are strictly increasing subsets of 0..Len-1, so a full-length
// selection is the identity and the gather becomes a memmove.
func gather[T any](lane func(engine.ColBatch) []T) laneKernel[T] {
	return func(_ *batchEval, b engine.ColBatch, sel selVec, out []T) error {
		l := lane(b)
		if len(sel) == len(l) {
			copy(out, l)
			return nil
		}
		for j, idx := range sel {
			out[j] = l[idx]
		}
		return nil
	}
}

func compileBatchUnary(x *Unary, bc *batchCompiler) (*bcompiled, bool) {
	c, ok := compileBatchExpr(x.X, bc)
	if !ok {
		return nil, false
	}
	switch x.Op {
	case "-":
		// Negation propagates validity: -NULL is NULL. Running the flip
		// over invalid positions only negates don't-care padding.
		switch c.kind {
		case ckInt:
			if c.isConst {
				return bConstInt(-c.cI), true
			}
			ik := c.i
			return &bcompiled{kind: ckInt, valid: c.valid,
				i: func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) error {
					if err := ik(e, b, sel, out); err != nil {
						return err
					}
					for j := range out {
						out[j] = -out[j]
					}
					return nil
				}}, true
		case ckFloat:
			if c.isConst {
				return bConstFloat(-c.cF), true
			}
			fk := c.f
			return &bcompiled{kind: ckFloat, valid: c.valid,
				f: func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
					if err := fk(e, b, sel, out); err != nil {
						return err
					}
					for j := range out {
						out[j] = -out[j]
					}
					return nil
				}}, true
		}
		return nil, false
	case "NOT":
		if c.kind != ckBool {
			return nil, false
		}
		// NOT propagates validity (NOT NULL is NULL); collapse to false
		// happens where the bool is consumed as a predicate.
		bk := c.b
		return &bcompiled{kind: ckBool, valid: c.valid,
			b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
				if err := bk(e, b, sel, out); err != nil {
					return err
				}
				for j := range out {
					out[j] = !out[j]
				}
				return nil
			}}, true
	}
	return nil, false
}

func compileBatchBinary(x *Binary, bc *batchCompiler) (*bcompiled, bool) {
	if x.Op == "AND" || x.Op == "OR" {
		return compileBatchLogic(x, bc)
	}
	l, ok := compileBatchExpr(x.L, bc)
	if !ok {
		return nil, false
	}
	r, ok := compileBatchExpr(x.R, bc)
	if !ok {
		return nil, false
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return compileBatchArith(x.Op, l, r, bc)
	case "=", "<>", "<", "<=", ">", ">=":
		return compileBatchCompare(x.Op, l, r, bc)
	}
	return nil, false
}

// compileBatchLogic lowers AND/OR with row-lane short-circuit semantics:
// the right operand is evaluated only over the sub-selection of rows the
// left operand did not already decide, so a guarded expression
// (x <> 0 AND 1/x > 2) can never fault on a guarded-out row.
func compileBatchLogic(x *Binary, bc *batchCompiler) (*bcompiled, bool) {
	l, ok := compileBatchExpr(x.L, bc)
	if !ok || l.kind != ckBool {
		return nil, false
	}
	r, ok := compileBatchExpr(x.R, bc)
	if !ok || r.kind != ckBool {
		return nil, false
	}
	// AND/OR consume operands in predicate position: a NULL operand is
	// not true (row lane asBool), so possibly-NULL operands collapse
	// before the short-circuit machinery sees them.
	l, r = collapseBool(l, bc), collapseBool(r, bc)
	lb, rb := l.b, r.b
	isAnd := x.Op == "AND"
	subSlot := bc.selSlot()
	posSlot := bc.selSlot()
	rSlot := bc.boolSlot()
	return &bcompiled{kind: ckBool,
		b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
			if err := lb(e, b, sel, out); err != nil {
				return err
			}
			sub := e.sel(subSlot, len(sel))[:0]
			pos := e.sel(posSlot, len(sel))[:0]
			for j, idx := range sel {
				if out[j] == isAnd {
					sub = append(sub, idx)
					pos = append(pos, int32(j))
				}
			}
			if len(sub) == 0 {
				return nil
			}
			rout := e.b(rSlot, len(sub))
			if err := rb(e, b, sub, rout); err != nil {
				return err
			}
			for j2, p := range pos {
				out[p] = rout[j2]
			}
			return nil
		}}, true
}

func compileBatchArith(op string, l, r *bcompiled, bc *batchCompiler) (*bcompiled, bool) {
	numeric := func(c *bcompiled) bool { return c.kind == ckFloat || c.kind == ckInt }
	if !numeric(l) || !numeric(r) {
		return nil, false
	}
	// Fold constants now, preserving the row lane's runtime error for
	// constant faults (1/0 errors only when a row is actually selected).
	if l.isConst && r.isConst {
		var lv, rv any
		if l.kind == ckInt {
			lv = l.cI
		} else {
			lv = l.cF
		}
		if r.kind == ckInt {
			rv = r.cI
		} else {
			rv = r.cF
		}
		v, err := evalArith(op, lv, rv)
		if err != nil {
			if l.kind == ckInt && r.kind == ckInt {
				return bErrInt(err), true
			}
			return bErrFloat(err), true
		}
		switch n := v.(type) {
		case int64:
			return bConstInt(n), true
		case float64:
			return bConstFloat(n), true
		}
		return nil, false
	}
	if l.valid != nil || r.valid != nil {
		// NULL-aware arithmetic: NULL propagates, so the result's
		// validity is the AND of the operands' and the op runs only over
		// the valid sub-selection — a NULL divisor therefore never
		// faults, exactly like evalArith returning nil before its zero
		// check.
		var inner *bcompiled
		var ok bool
		if l.kind == ckInt && r.kind == ckInt {
			inner, ok = batchIntArith(op, l.i, r.i, bc)
		} else {
			inner, ok = batchFloatArith(op, l.asF(bc), r.asF(bc), bc)
		}
		if !ok {
			return nil, false
		}
		return wrapNullable(inner, validAnd(l.valid, r.valid, bc), bc)
	}
	if l.kind == ckInt && r.kind == ckInt {
		return batchIntArith(op, l.i, r.i, bc)
	}
	return batchFloatArith(op, l.asF(bc), r.asF(bc), bc)
}

func batchIntArith(op string, lf, rf iBatchKernel, bc *batchCompiler) (*bcompiled, bool) {
	slot := bc.intSlot()
	eval2 := func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) ([]int64, error) {
		if err := lf(e, b, sel, out); err != nil {
			return nil, err
		}
		tmp := e.i(slot, len(sel))
		if err := rf(e, b, sel, tmp); err != nil {
			return nil, err
		}
		return tmp, nil
	}
	var k iBatchKernel
	switch op {
	case "+":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				out[j] += tmp[j]
			}
			return nil
		}
	case "-":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				out[j] -= tmp[j]
			}
			return nil
		}
	case "*":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				out[j] *= tmp[j]
			}
			return nil
		}
	case "/":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				if tmp[j] == 0 {
					return execErrf("division by zero")
				}
				out[j] /= tmp[j]
			}
			return nil
		}
	case "%":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []int64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				if tmp[j] == 0 {
					return execErrf("division by zero")
				}
				out[j] %= tmp[j]
			}
			return nil
		}
	default:
		return nil, false
	}
	return &bcompiled{kind: ckInt, i: k}, true
}

func batchFloatArith(op string, lf, rf fBatchKernel, bc *batchCompiler) (*bcompiled, bool) {
	slot := bc.floatSlot()
	eval2 := func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) ([]float64, error) {
		if err := lf(e, b, sel, out); err != nil {
			return nil, err
		}
		tmp := e.f(slot, len(sel))
		if err := rf(e, b, sel, tmp); err != nil {
			return nil, err
		}
		return tmp, nil
	}
	var k fBatchKernel
	switch op {
	case "+":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				out[j] += tmp[j]
			}
			return nil
		}
	case "-":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				out[j] -= tmp[j]
			}
			return nil
		}
	case "*":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				out[j] *= tmp[j]
			}
			return nil
		}
	case "/":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				if tmp[j] == 0 {
					return execErrf("division by zero")
				}
				out[j] /= tmp[j]
			}
			return nil
		}
	case "%":
		k = func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
			tmp, err := eval2(e, b, sel, out)
			if err != nil {
				return err
			}
			for j := range out {
				if tmp[j] == 0 {
					return execErrf("division by zero")
				}
				out[j] = math.Mod(out[j], tmp[j])
			}
			return nil
		}
	default:
		return nil, false
	}
	return &bcompiled{kind: ckFloat, f: k}, true
}

// flipCmp mirrors an operator so `const op x` reuses the x-op-const
// loops (5 < v  ≡  v > 5).
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// fcmpConst compares a float lane against a scalar. The forms mirror
// cmpToBool over the row lane's three-way compare, so NaN behaves
// identically in both lanes (a NaN operand compares "equal").
func fcmpConst(op string, vals []float64, c float64, out []bool) {
	switch op {
	case "=":
		for j, a := range vals {
			out[j] = !(a < c) && !(a > c)
		}
	case "<>":
		for j, a := range vals {
			out[j] = a < c || a > c
		}
	case "<":
		for j, a := range vals {
			out[j] = a < c
		}
	case "<=":
		for j, a := range vals {
			out[j] = !(a > c)
		}
	case ">":
		for j, a := range vals {
			out[j] = a > c
		}
	case ">=":
		for j, a := range vals {
			out[j] = !(a < c)
		}
	}
}

func fcmp2(op string, lv, rv []float64, out []bool) {
	switch op {
	case "=":
		for j := range lv {
			out[j] = !(lv[j] < rv[j]) && !(lv[j] > rv[j])
		}
	case "<>":
		for j := range lv {
			out[j] = lv[j] < rv[j] || lv[j] > rv[j]
		}
	case "<":
		for j := range lv {
			out[j] = lv[j] < rv[j]
		}
	case "<=":
		for j := range lv {
			out[j] = !(lv[j] > rv[j])
		}
	case ">":
		for j := range lv {
			out[j] = lv[j] > rv[j]
		}
	case ">=":
		for j := range lv {
			out[j] = !(lv[j] < rv[j])
		}
	}
}

func icmpConst(op string, vals []int64, c int64, out []bool) {
	switch op {
	case "=":
		for j, a := range vals {
			out[j] = a == c
		}
	case "<>":
		for j, a := range vals {
			out[j] = a != c
		}
	case "<":
		for j, a := range vals {
			out[j] = a < c
		}
	case "<=":
		for j, a := range vals {
			out[j] = a <= c
		}
	case ">":
		for j, a := range vals {
			out[j] = a > c
		}
	case ">=":
		for j, a := range vals {
			out[j] = a >= c
		}
	}
}

func icmp2(op string, lv, rv []int64, out []bool) {
	switch op {
	case "=":
		for j := range lv {
			out[j] = lv[j] == rv[j]
		}
	case "<>":
		for j := range lv {
			out[j] = lv[j] != rv[j]
		}
	case "<":
		for j := range lv {
			out[j] = lv[j] < rv[j]
		}
	case "<=":
		for j := range lv {
			out[j] = lv[j] <= rv[j]
		}
	case ">":
		for j := range lv {
			out[j] = lv[j] > rv[j]
		}
	case ">=":
		for j := range lv {
			out[j] = lv[j] >= rv[j]
		}
	}
}

func scmp2(op string, lv, rv []string, out []bool) {
	switch op {
	case "=":
		for j := range lv {
			out[j] = lv[j] == rv[j]
		}
	case "<>":
		for j := range lv {
			out[j] = lv[j] != rv[j]
		}
	case "<":
		for j := range lv {
			out[j] = strings.Compare(lv[j], rv[j]) < 0
		}
	case "<=":
		for j := range lv {
			out[j] = strings.Compare(lv[j], rv[j]) <= 0
		}
	case ">":
		for j := range lv {
			out[j] = strings.Compare(lv[j], rv[j]) > 0
		}
	case ">=":
		for j := range lv {
			out[j] = strings.Compare(lv[j], rv[j]) >= 0
		}
	}
}

func compileBatchCompare(op string, l, r *bcompiled, bc *batchCompiler) (*bcompiled, bool) {
	numeric := func(c *bcompiled) bool { return c.kind == ckFloat || c.kind == ckInt }
	if l.valid != nil || r.valid != nil {
		return compileBatchNullCompare(op, l, r, bc)
	}
	// Typed numeric vs per-execution scalar ($1, $1 + 20000): evaluated
	// and coerced once per batch — the batch form of the row lane's
	// typed-vs-dynamic comparison special case.
	if numeric(l) && r.scalar != nil {
		return batchScalarCompare(op, l, r.scalar, false, bc), true
	}
	if numeric(r) && l.scalar != nil {
		return batchScalarCompare(flipCmp(op), r, l.scalar, true, bc), true
	}
	switch {
	case numeric(l) && numeric(r):
		if l.kind == ckInt && r.kind == ckInt {
			switch {
			case r.isConst:
				lk, c := l.i, r.cI
				slot := bc.intSlot()
				return &bcompiled{kind: ckBool,
					b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
						vals := e.i(slot, len(sel))
						if err := lk(e, b, sel, vals); err != nil {
							return err
						}
						icmpConst(op, vals, c, out)
						return nil
					}}, true
			case l.isConst:
				rk, c := r.i, l.cI
				fop := flipCmp(op)
				slot := bc.intSlot()
				return &bcompiled{kind: ckBool,
					b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
						vals := e.i(slot, len(sel))
						if err := rk(e, b, sel, vals); err != nil {
							return err
						}
						icmpConst(fop, vals, c, out)
						return nil
					}}, true
			default:
				lk, rk := l.i, r.i
				ls, rs := bc.intSlot(), bc.intSlot()
				return &bcompiled{kind: ckBool,
					b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
						lv, rv := e.i(ls, len(sel)), e.i(rs, len(sel))
						if err := lk(e, b, sel, lv); err != nil {
							return err
						}
						if err := rk(e, b, sel, rv); err != nil {
							return err
						}
						icmp2(op, lv, rv, out)
						return nil
					}}, true
			}
		}
		// Mixed or float comparison: both sides as float lanes.
		switch {
		case r.isConst:
			lk, c := l.asF(bc), r.constF()
			slot := bc.floatSlot()
			return &bcompiled{kind: ckBool,
				b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
					vals := e.f(slot, len(sel))
					if err := lk(e, b, sel, vals); err != nil {
						return err
					}
					fcmpConst(op, vals, c, out)
					return nil
				}}, true
		case l.isConst:
			rk, c := r.asF(bc), l.constF()
			fop := flipCmp(op)
			slot := bc.floatSlot()
			return &bcompiled{kind: ckBool,
				b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
					vals := e.f(slot, len(sel))
					if err := rk(e, b, sel, vals); err != nil {
						return err
					}
					fcmpConst(fop, vals, c, out)
					return nil
				}}, true
		default:
			lk, rk := l.asF(bc), r.asF(bc)
			ls, rs := bc.floatSlot(), bc.floatSlot()
			return &bcompiled{kind: ckBool,
				b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
					lv, rv := e.f(ls, len(sel)), e.f(rs, len(sel))
					if err := lk(e, b, sel, lv); err != nil {
						return err
					}
					if err := rk(e, b, sel, rv); err != nil {
						return err
					}
					fcmp2(op, lv, rv, out)
					return nil
				}}, true
		}
	case l.kind == ckStr && r.kind == ckStr:
		lk, rk := l.s, r.s
		ls, rs := bc.strSlot(), bc.strSlot()
		return &bcompiled{kind: ckBool,
			b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
				lv, rv := e.s(ls, len(sel)), e.s(rs, len(sel))
				if err := lk(e, b, sel, lv); err != nil {
					return err
				}
				if err := rk(e, b, sel, rv); err != nil {
					return err
				}
				scmp2(op, lv, rv, out)
				return nil
			}}, true
	}
	// Bool/vector comparisons and anything dynamic: row lane.
	return nil, false
}

// compileBatchNullCompare lowers a comparison with at least one
// possibly-NULL side. A comparison with NULL is false — never NULL — so
// the result collapses to a plain bool lane: default false everywhere,
// the real comparison evaluated only over the rows where both sides are
// valid. The row lane routes any such comparison through boxed values
// (toFloat / compareValues), so the numeric compare domain is float
// even for int operands — mirrored here for bit parity.
func compileBatchNullCompare(op string, l, r *bcompiled, bc *batchCompiler) (*bcompiled, bool) {
	if l.scalar != nil || r.scalar != nil {
		return nil, false // dynamic vs NULL-able: keep the row lane's generic path
	}
	numeric := func(c *bcompiled) bool { return c.kind == ckFloat || c.kind == ckInt }
	valid := validAnd(l.valid, r.valid, bc)
	vs := newValidSub(valid, bc)
	switch {
	case numeric(l) && numeric(r):
		lk, rk := l.asF(bc), r.asF(bc)
		ls, rs := bc.floatSlot(), bc.floatSlot()
		resSlot := bc.boolSlot()
		return &bcompiled{kind: ckBool,
			b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
				for j := range out {
					out[j] = false
				}
				sub, pos, err := vs.split(e, b, sel)
				if err != nil || len(sub) == 0 {
					return err
				}
				lv, rv := e.f(ls, len(sub)), e.f(rs, len(sub))
				if err := lk(e, b, sub, lv); err != nil {
					return err
				}
				if err := rk(e, b, sub, rv); err != nil {
					return err
				}
				res := e.b(resSlot, len(sub))
				fcmp2(op, lv, rv, res)
				for j2, p := range pos {
					out[p] = res[j2]
				}
				return nil
			}}, true
	case l.kind == ckStr && r.kind == ckStr:
		lk, rk := l.s, r.s
		ls, rs := bc.strSlot(), bc.strSlot()
		resSlot := bc.boolSlot()
		return &bcompiled{kind: ckBool,
			b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
				for j := range out {
					out[j] = false
				}
				sub, pos, err := vs.split(e, b, sel)
				if err != nil || len(sub) == 0 {
					return err
				}
				lv, rv := e.s(ls, len(sub)), e.s(rs, len(sub))
				if err := lk(e, b, sub, lv); err != nil {
					return err
				}
				if err := rk(e, b, sub, rv); err != nil {
					return err
				}
				res := e.b(resSlot, len(sub))
				scmp2(op, lv, rv, res)
				for j2, p := range pos {
					out[p] = res[j2]
				}
				return nil
			}}, true
	}
	// NULL-able bools/vectors: row lane.
	return nil, false
}

// batchScalarCompare compares a typed numeric lane against a
// per-execution scalar, as the row lane's typed-vs-dynamic comparison
// does row by row: a NULL scalar compares false, a non-numeric one is
// the same error (scalarLeft restores the operand order the statement
// wrote, which the message shows; op is already flipped). The scalar is
// evaluated lazily per batch so an empty selection (no surviving rows)
// raises no error — matching a row lane that never evaluates the
// predicate.
func batchScalarCompare(op string, l *bcompiled, scalar func(*execEnv) (any, error), scalarLeft bool, bc *batchCompiler) *bcompiled {
	lk := l.asF(bc)
	lkind := l.kind
	slot := bc.floatSlot()
	return &bcompiled{kind: ckBool,
		b: func(e *batchEval, b engine.ColBatch, sel selVec, out []bool) error {
			if len(sel) == 0 {
				return nil
			}
			v, err := scalar(e.env)
			if err != nil {
				return err
			}
			c, ok := toFloat(v)
			if !ok && v != nil {
				if scalarLeft {
					return execErrf("cannot compare %s with %s", valueTypeName(v), lkind)
				}
				return execErrf("cannot compare %s with %s", lkind, valueTypeName(v))
			}
			vals := e.f(slot, len(sel))
			if err := lk(e, b, sel, vals); err != nil {
				return err
			}
			if v == nil {
				for j := range out {
					out[j] = false
				}
				return nil
			}
			fcmpConst(op, vals, c, out)
			return nil
		}}
}

func compileBatchFuncCall(x *FuncCall, bc *batchCompiler) (*bcompiled, bool) {
	if x.Name == "predict" && !x.Star && (x.Schema == "" || x.Schema == "madlib") {
		return compileBatchPredict(x, bc)
	}
	fn := scalarFuncs[x.Name]
	if x.Schema != "" || x.Star || fn == nil || len(x.Args) != fn.arity {
		return nil, false
	}
	args := make([]*bcompiled, len(x.Args))
	kinds := make([]ckind, len(x.Args))
	var valid bBatchKernel
	for i, a := range x.Args {
		c, ok := compileBatchExpr(a, bc)
		if !ok || c.scalar != nil {
			return nil, false
		}
		args[i], kinds[i], valid = c, c.kind, validAnd(valid, c.valid, bc)
	}
	f, err := fn.match(x.Name, kinds)
	if f == nil || err != nil {
		return nil, false
	}
	k, ok := f.kernel(args, bc)
	if !ok || valid == nil {
		return k, ok
	}
	// Strict: a NULL argument gives NULL, so the kernel runs over the
	// rows whose arguments are all valid.
	return wrapNullable(k, valid, bc)
}

// compileBatchPredicate lowers a WHERE clause to a boolean batch kernel;
// ok=false leaves it to its row closure. A nil WHERE compiles to (nil, true).
func compileBatchPredicate(where Expr, bc *batchCompiler) (bBatchKernel, bool) {
	if where == nil {
		return nil, true
	}
	c, ok := compileBatchExpr(where, bc)
	if !ok || c.kind != ckBool {
		return nil, false
	}
	return collapseBool(c, bc).b, true
}
