package sql

import (
	"context"
	"fmt"
	"math"
	"strings"

	"madlib/internal/engine"
)

// This file lowers type-checked scalar expressions into Go closures, so
// per-row evaluation — WHERE filters, projection lists, aggregate
// arguments, computed staging columns — runs a direct call chain instead
// of walking the AST with boxed values (the paper's §4.4(a) overhead
// argument: the declarative surface must cost almost nothing over the raw
// engine). Compilation happens once per plan; the closures are pure with
// respect to shared state, so the engine may call them from every segment
// goroutine concurrently.

// execEnv carries the per-execution bindings of a plan: the $n parameter
// values supplied by EXECUTE, the context governing this execution
// (cancellation / statement timeout — checked by the engine's scan
// drivers at morsel boundaries) and, for an output stage, the slot
// values its expressions read (compileCtx.slotNames/slotCalls). It is
// read-only during a query, except that an output stage owns the slots
// of the copy withSlots made for it. A nil env is valid and means "no
// parameters bound, background context".
type execEnv struct {
	params []any
	ctx    context.Context
	slots  []any
}

// withSlots returns a copy of env carrying a fresh slot vector of n
// values: one per output-stage evaluator, so concurrent evaluators (the
// window fold's partitions) never share one.
func (env *execEnv) withSlots(n int) *execEnv {
	out := &execEnv{slots: make([]any, n)}
	if env != nil {
		out.params, out.ctx = env.params, env.ctx
	}
	return out
}

func (env *execEnv) param(idx int) (any, error) {
	if env == nil || idx < 1 || idx > len(env.params) {
		return nil, execErrf("there is no parameter $%d", idx)
	}
	return env.params[idx-1], nil
}

// context returns the execution's context, nil-safe.
func (env *execEnv) context() context.Context {
	if env == nil || env.ctx == nil {
		return context.Background()
	}
	return env.ctx
}

// compilePredicate compiles a WHERE clause, requiring a boolean result.
// A nil clause compiles to a nil predicate (keep every row).
func compilePredicate(where Expr, cc *compileCtx) (boolFn, error) {
	if where == nil {
		return nil, nil
	}
	c, err := compileExpr(where, cc)
	if err != nil {
		return nil, err
	}
	switch c.kind {
	case ckBool:
		return c.b, nil
	case ckAny:
		fn := c.a
		return func(r engine.Row, env *execEnv) (bool, error) {
			v, err := fn(r, env)
			if err != nil {
				return false, err
			}
			if v == nil {
				return false, nil // NULL is not true in predicate position
			}
			b, ok := v.(bool)
			if !ok {
				return false, execErrf("WHERE must evaluate to boolean, not %s", valueTypeName(v))
			}
			return b, nil
		}, nil
	}
	return nil, execErrf("WHERE must evaluate to boolean, not %s", c.kind)
}

// ckind is a compiled expression's static result type. ckAny marks nodes
// whose type is only known at run time ($n parameters, NULL-padded
// columns, output-stage slots); those evaluate boxed, and typed parents
// containing them degrade to boxed evaluation too.
type ckind int

const (
	ckFloat ckind = iota
	ckInt
	ckStr
	ckBool
	ckVec
	ckAny
)

func (k ckind) String() string {
	switch k {
	case ckFloat:
		return "double precision"
	case ckInt:
		return "bigint"
	case ckStr:
		return "text"
	case ckBool:
		return "boolean"
	case ckVec:
		return "double precision[]"
	}
	return "unknown"
}

// kindOf maps an engine column kind to the compiled kind lattice.
func kindOf(k engine.Kind) ckind {
	switch k {
	case engine.Float:
		return ckFloat
	case engine.Int:
		return ckInt
	case engine.String:
		return ckStr
	case engine.Bool:
		return ckBool
	case engine.Vector:
		return ckVec
	}
	return ckAny
}

// Typed closure signatures. Every closure receives the row cursor and the
// execution environment and may fail (division by zero, bad parameter).
type rowFn[T any] func(engine.Row, *execEnv) (T, error)

type (
	floatFn = rowFn[float64]
	intFn   = rowFn[int64]
	strFn   = rowFn[string]
	boolFn  = rowFn[bool]
	vecFn   = rowFn[[]float64]
	anyFn   = rowFn[any]
)

// compiled is one lowered expression node: its static kind, the matching
// typed closure, and a boxed closure (always set) for callers that need
// an `any`.
type compiled struct {
	kind ckind
	f    floatFn
	i    intFn
	s    strFn
	b    boolFn
	v    vecFn
	a    anyFn
}

// Constructors box the typed closure into `a` exactly once.

func cFloat(fn floatFn) *compiled {
	return &compiled{kind: ckFloat, f: fn, a: func(r engine.Row, env *execEnv) (any, error) {
		return fn(r, env)
	}}
}

func cInt(fn intFn) *compiled {
	return &compiled{kind: ckInt, i: fn, a: func(r engine.Row, env *execEnv) (any, error) {
		return fn(r, env)
	}}
}

func cStr(fn strFn) *compiled {
	return &compiled{kind: ckStr, s: fn, a: func(r engine.Row, env *execEnv) (any, error) {
		return fn(r, env)
	}}
}

func cBool(fn boolFn) *compiled {
	return &compiled{kind: ckBool, b: fn, a: func(r engine.Row, env *execEnv) (any, error) {
		return fn(r, env)
	}}
}

func cVec(fn vecFn) *compiled {
	return &compiled{kind: ckVec, v: fn, a: func(r engine.Row, env *execEnv) (any, error) {
		return fn(r, env)
	}}
}

func cAny(fn anyFn) *compiled { return &compiled{kind: ckAny, a: fn} }

// isNumeric reports whether the static kind can feed arithmetic.
func (c *compiled) isNumeric() bool {
	return c.kind == ckFloat || c.kind == ckInt || c.kind == ckAny
}

// asFloat adapts the node to a float64 producer, widening ints and
// converting boxed values at run time.
func (c *compiled) asFloat() floatFn {
	switch c.kind {
	case ckFloat:
		return c.f
	case ckInt:
		fn := c.i
		return func(r engine.Row, env *execEnv) (float64, error) {
			v, err := fn(r, env)
			return float64(v), err
		}
	default:
		fn := c.a
		return func(r engine.Row, env *execEnv) (float64, error) {
			v, err := fn(r, env)
			if err != nil {
				return 0, err
			}
			f, ok := toFloat(v)
			if !ok {
				return 0, execErrf("value is %s, not numeric", valueTypeName(v))
			}
			return f, nil
		}
	}
}

// asBool adapts the node to a bool producer; non-boolean boxed values fail
// at run time with the operator's name in the message.
func (c *compiled) asBool(what string) (boolFn, error) {
	switch c.kind {
	case ckBool:
		return c.b, nil
	case ckAny:
		fn := c.a
		return func(r engine.Row, env *execEnv) (bool, error) {
			v, err := fn(r, env)
			if err != nil {
				return false, err
			}
			if v == nil {
				return false, nil // NULL is not true in predicate position
			}
			b, ok := v.(bool)
			if !ok {
				return false, execErrf("argument of %s must be boolean, not %s", what, valueTypeName(v))
			}
			return b, nil
		}, nil
	default:
		return nil, execErrf("argument of %s must be boolean, not %s", what, c.kind)
	}
}

// compileCtx binds compilation to a table schema. nullable marks columns
// that can be NULL at run time (the padded side of a LEFT JOIN); their
// references compile to boxed closures that consult the matchedIdx
// marker column.
type compileCtx struct {
	schema     engine.Schema
	colIdx     map[string]int
	nullable   []bool
	matchedIdx int
	// src is the plan source being compiled against, when there is one.
	// It supplies the engine handle for plan-time madlib.predict model
	// resolution and accumulates the resulting model dependencies; a nil
	// src (TVF staging columns, INSERT values) rejects predict.
	src *planSource
	// slotNames and slotCalls bind an output stage's inputs to positions
	// in env.slots: names (GROUP BY keys, then output aliases) and
	// aggregate or window calls. A name resolves to its slot before the
	// schema is consulted. Slot reads are boxed (ckAny), so a NULL slot
	// takes the same helpers as any dynamic value.
	slotNames map[string]int
	slotCalls map[*FuncCall]int
	// unbound is the error format for a column reference that neither a
	// slot nor the schema binds; empty means engine.ErrNoColumn.
	unbound string
}

func newCompileCtx(schema engine.Schema) *compileCtx {
	return &compileCtx{schema: schema, colIdx: colIndexMap(schema), matchedIdx: -1}
}

// constCompileCtx is the context of column-free expressions: FROM-less
// SELECT items, INSERT values and constant folds.
func constCompileCtx() *compileCtx {
	cc := newCompileCtx(nil)
	cc.unbound = "column reference %q is not allowed here"
	return cc
}

// evalConst compiles a column-free expression and evaluates it once,
// with no row and no parameters bound.
func evalConst(e Expr) (any, error) {
	c, err := compileExpr(e, constCompileCtx())
	if err != nil {
		return nil, err
	}
	return c.a(engine.Row{}, nil)
}

// compileExpr lowers e against the schema. Aggregate and window calls
// compile only where the context binds them to slots (an output stage);
// elsewhere they are rejected.
func compileExpr(e Expr, cc *compileCtx) (*compiled, error) {
	switch x := e.(type) {
	case *Literal:
		return compileLiteral(x), nil
	case *ArrayLit:
		return compileArrayLit(x, cc)
	case *ColumnRef:
		return compileColumnRef(x, cc)
	case *Param:
		idx := x.Idx
		return cAny(func(_ engine.Row, env *execEnv) (any, error) {
			return env.param(idx)
		}), nil
	case *Unary:
		return compileUnary(x, cc)
	case *Binary:
		return compileBinary(x, cc)
	case *FuncCall:
		if i, ok := cc.slotCalls[x]; ok {
			return compileSlot(i), nil
		}
		return compileFuncCall(x, cc)
	}
	return nil, execErrf("cannot compile %T", e)
}

func compileSlot(i int) *compiled {
	return cAny(func(_ engine.Row, env *execEnv) (any, error) { return env.slots[i], nil })
}

func compileLiteral(x *Literal) *compiled {
	switch v := x.Val.(type) {
	case int64:
		return cInt(func(engine.Row, *execEnv) (int64, error) { return v, nil })
	case float64:
		return cFloat(func(engine.Row, *execEnv) (float64, error) { return v, nil })
	case string:
		return cStr(func(engine.Row, *execEnv) (string, error) { return v, nil })
	case bool:
		return cBool(func(engine.Row, *execEnv) (bool, error) { return v, nil })
	}
	v := x.Val
	return cAny(func(engine.Row, *execEnv) (any, error) { return v, nil })
}

func compileArrayLit(x *ArrayLit, cc *compileCtx) (*compiled, error) {
	elems := make([]floatFn, len(x.Elems))
	constOnly := true
	for i, el := range x.Elems {
		c, err := compileExpr(el, cc)
		if err != nil {
			return nil, err
		}
		if !c.isNumeric() {
			return nil, execErrf("array element %d is not numeric", i+1)
		}
		if _, isLit := el.(*Literal); !isLit {
			constOnly = false
		}
		elems[i] = c.asFloat()
	}
	if constOnly {
		// Fold a literal array once; the engine treats vectors as
		// immutable, so sharing one slice across rows is safe.
		vec := make([]float64, len(elems))
		for i, fn := range elems {
			v, err := fn(engine.Row{}, nil)
			if err != nil {
				return nil, err
			}
			vec[i] = v
		}
		return cVec(func(engine.Row, *execEnv) ([]float64, error) { return vec, nil }), nil
	}
	return cVec(func(r engine.Row, env *execEnv) ([]float64, error) {
		out := make([]float64, len(elems))
		for i, fn := range elems {
			v, err := fn(r, env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}), nil
}

func compileColumnRef(x *ColumnRef, cc *compileCtx) (*compiled, error) {
	if i, ok := cc.slotNames[x.Name]; ok {
		return compileSlot(i), nil
	}
	ci, ok := cc.colIdx[x.Name]
	if !ok {
		if cc.unbound != "" {
			return nil, execErrf(cc.unbound, x.Name)
		}
		return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, x.Name)
	}
	if cc.nullable != nil && cc.nullable[ci] {
		// Nullable (LEFT JOIN padded) column: box the value and yield
		// NULL on rows whose matched marker is false.
		mi := cc.matchedIdx
		kind := cc.schema[ci].Kind
		return cAny(func(r engine.Row, _ *execEnv) (any, error) {
			if !r.Bool(mi) {
				return nil, nil
			}
			switch kind {
			case engine.Float:
				return r.Float(ci), nil
			case engine.Int:
				return r.Int(ci), nil
			case engine.String:
				return r.Str(ci), nil
			case engine.Bool:
				return r.Bool(ci), nil
			case engine.Vector:
				return r.Vector(ci), nil
			}
			return nil, execErrf("column %q has unknown kind", x.Name)
		}), nil
	}
	switch cc.schema[ci].Kind {
	case engine.Float:
		return cFloat(func(r engine.Row, _ *execEnv) (float64, error) { return r.Float(ci), nil }), nil
	case engine.Int:
		return cInt(func(r engine.Row, _ *execEnv) (int64, error) { return r.Int(ci), nil }), nil
	case engine.String:
		return cStr(func(r engine.Row, _ *execEnv) (string, error) { return r.Str(ci), nil }), nil
	case engine.Bool:
		return cBool(func(r engine.Row, _ *execEnv) (bool, error) { return r.Bool(ci), nil }), nil
	case engine.Vector:
		return cVec(func(r engine.Row, _ *execEnv) ([]float64, error) { return r.Vector(ci), nil }), nil
	}
	return nil, execErrf("column %q has unknown kind", x.Name)
}

func compileUnary(x *Unary, cc *compileCtx) (*compiled, error) {
	c, err := compileExpr(x.X, cc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "-":
		switch c.kind {
		case ckInt:
			fn := c.i
			return cInt(func(r engine.Row, env *execEnv) (int64, error) {
				v, err := fn(r, env)
				return -v, err
			}), nil
		case ckFloat:
			fn := c.f
			return cFloat(func(r engine.Row, env *execEnv) (float64, error) {
				v, err := fn(r, env)
				return -v, err
			}), nil
		case ckAny:
			fn := c.a
			return cAny(func(r engine.Row, env *execEnv) (any, error) {
				v, err := fn(r, env)
				if err != nil {
					return nil, err
				}
				switch n := v.(type) {
				case nil:
					return nil, nil
				case int64:
					return -n, nil
				case float64:
					return -n, nil
				}
				return nil, execErrf("cannot negate %s", valueTypeName(v))
			}), nil
		default:
			return nil, execErrf("cannot negate %s", c.kind)
		}
	case "NOT":
		if c.kind == ckAny {
			// NULL propagates through NOT (NOT NULL is NULL, which is
			// then not-true in predicate position).
			fn := c.a
			return cAny(func(r engine.Row, env *execEnv) (any, error) {
				v, err := fn(r, env)
				if err != nil || v == nil {
					return nil, err
				}
				b, ok := v.(bool)
				if !ok {
					return nil, execErrf("argument of NOT must be boolean, not %s", valueTypeName(v))
				}
				return !b, nil
			}), nil
		}
		fn, err := c.asBool("NOT")
		if err != nil {
			return nil, err
		}
		return cBool(func(r engine.Row, env *execEnv) (bool, error) {
			v, err := fn(r, env)
			return !v, err
		}), nil
	}
	return nil, execErrf("unknown unary operator %q", x.Op)
}

func compileBinary(x *Binary, cc *compileCtx) (*compiled, error) {
	if x.Op == "AND" || x.Op == "OR" {
		return compileLogic(x, cc)
	}
	l, err := compileExpr(x.L, cc)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, cc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return compileArith(x.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return compileCompare(x.Op, l, r)
	}
	return nil, execErrf("unknown operator %q", x.Op)
}

func compileLogic(x *Binary, cc *compileCtx) (*compiled, error) {
	l, err := compileExpr(x.L, cc)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, cc)
	if err != nil {
		return nil, err
	}
	lb, err := l.asBool(x.Op)
	if err != nil {
		return nil, err
	}
	rb, err := r.asBool(x.Op)
	if err != nil {
		return nil, err
	}
	if x.Op == "AND" {
		return cBool(func(row engine.Row, env *execEnv) (bool, error) {
			v, err := lb(row, env)
			if err != nil || !v {
				return false, err
			}
			return rb(row, env)
		}), nil
	}
	return cBool(func(row engine.Row, env *execEnv) (bool, error) {
		v, err := lb(row, env)
		if err != nil || v {
			return v, err
		}
		return rb(row, env)
	}), nil
}

func compileArith(op string, l, r *compiled) (*compiled, error) {
	if !l.isNumeric() || !r.isNumeric() {
		return nil, execErrf("operator %s does not apply to %s and %s", op, l.kind, r.kind)
	}
	// Boxed fallback when either side's type is dynamic: evalArith keeps
	// the int/float promotion rules in one place.
	if l.kind == ckAny || r.kind == ckAny {
		lf, rf := l.a, r.a
		return cAny(func(row engine.Row, env *execEnv) (any, error) {
			lv, err := lf(row, env)
			if err != nil {
				return nil, err
			}
			rv, err := rf(row, env)
			if err != nil {
				return nil, err
			}
			return evalArith(op, lv, rv)
		}), nil
	}
	// Integer arithmetic stays integral, with the same checked division
	// evalArith applies (division by zero is a clean SQL error; Go itself
	// defines MinInt64 / -1 to wrap, so no overflow panic exists).
	if l.kind == ckInt && r.kind == ckInt {
		lf, rf := l.i, r.i
		switch op {
		case "+":
			return cInt(func(row engine.Row, env *execEnv) (int64, error) {
				a, err := lf(row, env)
				if err != nil {
					return 0, err
				}
				b, err := rf(row, env)
				return a + b, err
			}), nil
		case "-":
			return cInt(func(row engine.Row, env *execEnv) (int64, error) {
				a, err := lf(row, env)
				if err != nil {
					return 0, err
				}
				b, err := rf(row, env)
				return a - b, err
			}), nil
		case "*":
			return cInt(func(row engine.Row, env *execEnv) (int64, error) {
				a, err := lf(row, env)
				if err != nil {
					return 0, err
				}
				b, err := rf(row, env)
				return a * b, err
			}), nil
		case "/":
			return cInt(func(row engine.Row, env *execEnv) (int64, error) {
				a, err := lf(row, env)
				if err != nil {
					return 0, err
				}
				b, err := rf(row, env)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, execErrf("division by zero")
				}
				return a / b, nil
			}), nil
		case "%":
			return cInt(func(row engine.Row, env *execEnv) (int64, error) {
				a, err := lf(row, env)
				if err != nil {
					return 0, err
				}
				b, err := rf(row, env)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, execErrf("division by zero")
				}
				return a % b, nil
			}), nil
		}
		return nil, execErrf("unknown operator %q", op)
	}
	lf, rf := l.asFloat(), r.asFloat()
	switch op {
	case "+":
		return cFloat(func(row engine.Row, env *execEnv) (float64, error) {
			a, err := lf(row, env)
			if err != nil {
				return 0, err
			}
			b, err := rf(row, env)
			return a + b, err
		}), nil
	case "-":
		return cFloat(func(row engine.Row, env *execEnv) (float64, error) {
			a, err := lf(row, env)
			if err != nil {
				return 0, err
			}
			b, err := rf(row, env)
			return a - b, err
		}), nil
	case "*":
		return cFloat(func(row engine.Row, env *execEnv) (float64, error) {
			a, err := lf(row, env)
			if err != nil {
				return 0, err
			}
			b, err := rf(row, env)
			return a * b, err
		}), nil
	case "/":
		return cFloat(func(row engine.Row, env *execEnv) (float64, error) {
			a, err := lf(row, env)
			if err != nil {
				return 0, err
			}
			b, err := rf(row, env)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, execErrf("division by zero")
			}
			return a / b, nil
		}), nil
	case "%":
		return cFloat(func(row engine.Row, env *execEnv) (float64, error) {
			a, err := lf(row, env)
			if err != nil {
				return 0, err
			}
			b, err := rf(row, env)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, execErrf("division by zero")
			}
			return math.Mod(a, b), nil
		}), nil
	}
	return nil, execErrf("unknown operator %q", op)
}

// cmpToBool turns a three-way comparison into the operator's boolean.
func cmpToBool(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func compileCompare(op string, l, r *compiled) (*compiled, error) {
	// Numeric comparison: the hot WHERE path (v > 0.25).
	if l.kind != ckAny && r.kind != ckAny && l.isNumeric() && r.isNumeric() {
		if l.kind == ckInt && r.kind == ckInt {
			lf, rf := l.i, r.i
			return cBool(func(row engine.Row, env *execEnv) (bool, error) {
				a, err := lf(row, env)
				if err != nil {
					return false, err
				}
				b, err := rf(row, env)
				if err != nil {
					return false, err
				}
				switch {
				case a < b:
					return cmpToBool(op, -1), nil
				case a > b:
					return cmpToBool(op, 1), nil
				default:
					return cmpToBool(op, 0), nil
				}
			}), nil
		}
		lf, rf := l.asFloat(), r.asFloat()
		return cBool(func(row engine.Row, env *execEnv) (bool, error) {
			a, err := lf(row, env)
			if err != nil {
				return false, err
			}
			b, err := rf(row, env)
			if err != nil {
				return false, err
			}
			switch {
			case a < b:
				return cmpToBool(op, -1), nil
			case a > b:
				return cmpToBool(op, 1), nil
			default:
				return cmpToBool(op, 0), nil
			}
		}), nil
	}
	if l.kind == ckStr && r.kind == ckStr {
		lf, rf := l.s, r.s
		return cBool(func(row engine.Row, env *execEnv) (bool, error) {
			a, err := lf(row, env)
			if err != nil {
				return false, err
			}
			b, err := rf(row, env)
			if err != nil {
				return false, err
			}
			return cmpToBool(op, strings.Compare(a, b)), nil
		}), nil
	}
	// Static type mismatch (text vs numeric, etc.) is a plan-time error;
	// everything else — bools, vectors, dynamic operands — goes through
	// compareValues.
	if l.kind != ckAny && r.kind != ckAny && l.kind != r.kind &&
		!(l.isNumeric() && r.isNumeric()) {
		return nil, execErrf("cannot compare %s with %s", l.kind, r.kind)
	}
	// One side statically numeric, the other dynamic (v > $1): keep the
	// typed side unboxed and convert the dynamic value per row — the
	// dynamic side is usually a parameter, already boxed in the env.
	if (l.kind == ckFloat || l.kind == ckInt) && r.kind == ckAny {
		lf, ra, lk := l.asFloat(), r.a, l.kind
		return cBool(func(row engine.Row, env *execEnv) (bool, error) {
			a, err := lf(row, env)
			if err != nil {
				return false, err
			}
			rv, err := ra(row, env)
			if err != nil {
				return false, err
			}
			if rv == nil {
				return false, nil // comparisons with NULL are false
			}
			b, ok := toFloat(rv)
			if !ok {
				return false, execErrf("cannot compare %s with %s", lk, valueTypeName(rv))
			}
			switch {
			case a < b:
				return cmpToBool(op, -1), nil
			case a > b:
				return cmpToBool(op, 1), nil
			default:
				return cmpToBool(op, 0), nil
			}
		}), nil
	}
	if l.kind == ckAny && (r.kind == ckFloat || r.kind == ckInt) {
		la, rf, rk := l.a, r.asFloat(), r.kind
		return cBool(func(row engine.Row, env *execEnv) (bool, error) {
			lv, err := la(row, env)
			if err != nil {
				return false, err
			}
			if lv == nil {
				return false, nil // comparisons with NULL are false
			}
			a, ok := toFloat(lv)
			if !ok {
				return false, execErrf("cannot compare %s with %s", valueTypeName(lv), rk)
			}
			b, err := rf(row, env)
			if err != nil {
				return false, err
			}
			switch {
			case a < b:
				return cmpToBool(op, -1), nil
			case a > b:
				return cmpToBool(op, 1), nil
			default:
				return cmpToBool(op, 0), nil
			}
		}), nil
	}
	lf, rf := l.a, r.a
	return cBool(func(row engine.Row, env *execEnv) (bool, error) {
		a, err := lf(row, env)
		if err != nil {
			return false, err
		}
		b, err := rf(row, env)
		if err != nil {
			return false, err
		}
		if a == nil || b == nil {
			return false, nil // comparisons with NULL are false
		}
		c, err := compareValues(a, b)
		if err != nil {
			return false, err
		}
		return cmpToBool(op, c), nil
	}), nil
}

func compileFuncCall(x *FuncCall, cc *compileCtx) (*compiled, error) {
	if x.Schema != "" && x.Schema != "madlib" {
		return nil, execErrf("unknown schema %q", x.Schema)
	}
	if x.Over != nil {
		return nil, execErrf("window function %s(...) OVER is only allowed in the SELECT list", x.Name)
	}
	if x.Star {
		return nil, execErrf("%s(*) is only valid as an aggregate in a SELECT list", x.Name)
	}
	if isAggregateCall(x) {
		return nil, execErrf("aggregate function %s(...) is not allowed here", x.Name)
	}
	if isTableValuedCall(x) {
		return nil, execErrf("table-valued function %s(...) is not allowed here", x.Name)
	}
	if x.Name == "predict" {
		// Model scoring: resolved against the catalog at plan time, so it
		// compiles before the generic argument lowering (the model name
		// literal is consumed by resolution, not evaluated per row).
		if cc.schema == nil {
			return nil, execErrf("madlib.predict requires a FROM clause (models are resolved when compiling a table scan)")
		}
		return compilePredictRow(x, cc)
	}
	args := make([]*compiled, len(x.Args))
	kinds := make([]ckind, len(x.Args))
	for i, a := range x.Args {
		c, err := compileExpr(a, cc)
		if err != nil {
			return nil, err
		}
		args[i], kinds[i] = c, c.kind
	}
	fn := scalarFuncs[x.Name]
	switch {
	case fn == nil:
		return nil, execErrf("unknown function %s(...)", x.Name)
	case len(args) != fn.arity:
		return nil, execErrf("%s expects %d argument(s), got %d", x.Name, fn.arity, len(args))
	}
	f, err := fn.match(x.Name, kinds)
	switch {
	case err != nil:
		return nil, err
	case f == nil:
		return fn.dynamic(x.Name, args), nil
	}
	return f.closure(args), nil
}

// exprMaxParam returns the highest $n placeholder index in e (0 when
// there are none).
func exprMaxParam(e Expr) int {
	maxIdx := 0
	walkExpr(e, func(x Expr) {
		if p, ok := x.(*Param); ok && p.Idx > maxIdx {
			maxIdx = p.Idx
		}
	})
	return maxIdx
}

// exprHasParam reports whether e contains any $n placeholder.
func exprHasParam(e Expr) bool { return exprMaxParam(e) > 0 }

// stmtMaxParam returns the highest $n placeholder index anywhere in a
// statement — the prepared statement's parameter count.
func stmtMaxParam(st Statement) int {
	maxIdx := 0
	see := func(e Expr) {
		if e == nil {
			return
		}
		if n := exprMaxParam(e); n > maxIdx {
			maxIdx = n
		}
	}
	switch x := st.(type) {
	case *Select:
		for _, item := range x.Items {
			see(item.Expr)
		}
		if x.Join != nil {
			see(x.Join.On)
		}
		see(x.Where)
		see(x.Having)
		for _, k := range x.OrderBy {
			see(k.Expr)
		}
	case *CreateTableAs:
		return stmtMaxParam(x.Query)
	case *Insert:
		for _, row := range x.Rows {
			for _, e := range row {
				see(e)
			}
		}
	}
	return maxIdx
}
