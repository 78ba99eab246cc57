package sql

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"madlib/internal/core"
	"madlib/internal/engine"
)

// Execution errors not tied to a source position.
var (
	// ErrNoRows is returned by Query helpers when a statement produced no
	// row set.
	ErrNoRows = errors.New("sql: statement returned no rows")
)

func execErrf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format, args...)
}

func colIndexMap(schema engine.Schema) map[string]int {
	m := make(map[string]int, len(schema))
	for i, c := range schema {
		m[c.Name] = i
	}
	return m
}

// rowValue fetches one typed column value from the bound row.
func rowValue(schema engine.Schema, row *engine.Row, idx int) any {
	switch schema[idx].Kind {
	case engine.Float:
		return row.Float(idx)
	case engine.Vector:
		return row.Vector(idx)
	case engine.Int:
		return row.Int(idx)
	case engine.String:
		return row.Str(idx)
	case engine.Bool:
		return row.Bool(idx)
	}
	return nil
}

func evalArith(op string, l, r any) (any, error) {
	// NULL (a padded LEFT JOIN column) propagates through arithmetic.
	if l == nil || r == nil {
		return nil, nil
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, execErrf("division by zero")
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, execErrf("division by zero")
			}
			return li % ri, nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, execErrf("operator %s does not apply to %s and %s", op, valueTypeName(l), valueTypeName(r))
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, execErrf("division by zero")
		}
		return lf / rf, nil
	case "%":
		if rf == 0 {
			return nil, execErrf("division by zero")
		}
		return math.Mod(lf, rf), nil
	}
	return nil, execErrf("unknown operator %q", op)
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int64:
		return float64(n), true
	}
	return 0, false
}

func valueTypeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case int64:
		return "bigint"
	case float64:
		return "double precision"
	case string:
		return "text"
	case bool:
		return "boolean"
	case []float64:
		return "double precision[]"
	}
	return fmt.Sprintf("%T", v)
}

// compareValues orders two values: nil first, then numerics (cross-type),
// bools (false < true), strings, vectors (lexicographic). Mismatched
// non-numeric types are an error.
func compareValues(a, b any) (int, error) {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0, nil
		case a == nil:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			// Compare int64 pairs exactly: widening through float64 loses
			// precision above 2^53 and would conflate or mis-order values.
			switch {
			case ai < bi:
				return -1, nil
			case ai > bi:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if af, ok := toFloat(a); ok {
		if bf, ok := toFloat(b); ok {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return strings.Compare(as, bs), nil
		}
	}
	if ab, ok := a.(bool); ok {
		if bb, ok := b.(bool); ok {
			switch {
			case ab == bb:
				return 0, nil
			case !ab:
				return -1, nil
			default:
				return 1, nil
			}
		}
	}
	if av, ok := a.([]float64); ok {
		if bv, ok := b.([]float64); ok {
			for i := 0; i < len(av) && i < len(bv); i++ {
				if av[i] != bv[i] {
					if av[i] < bv[i] {
						return -1, nil
					}
					return 1, nil
				}
			}
			switch {
			case len(av) < len(bv):
				return -1, nil
			case len(av) > len(bv):
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return 0, execErrf("cannot compare %s with %s", valueTypeName(a), valueTypeName(b))
}

// Built-in two-phase aggregates.
var builtinAggs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"variance": true, "stddev": true,
}

// isAggregateCall reports whether the call is a built-in aggregate or a
// registered madlib aggregate function. A window call (fn(...) OVER ...)
// is never an aggregate: it is planned separately by the window executor.
func isAggregateCall(x *FuncCall) bool {
	if x.Over != nil {
		return false
	}
	if x.Schema == "" && builtinAggs[x.Name] {
		return true
	}
	if f, ok := core.LookupSQLFunc(x.Name); ok && f.Kind == core.SQLAggregate {
		return x.Schema == "" || x.Schema == "madlib"
	}
	return false
}

// isTableValuedCall reports whether the call is a registered madlib
// table-valued function.
func isTableValuedCall(x *FuncCall) bool {
	if x.Schema != "" && x.Schema != "madlib" {
		return false
	}
	f, ok := core.LookupSQLFunc(x.Name)
	return ok && f.Kind == core.SQLTableValued
}

// walkAgg visits e and all children pre-order, telling the callback
// whether each node sits inside an aggregate call's arguments. It is the
// single traversal underlying walkExpr, collectAggCalls,
// exprHasNestedAgg and the executor's grouped-column check.
func walkAgg(e Expr, visit func(e Expr, inAgg bool)) {
	var rec func(Expr, bool)
	rec = func(e Expr, inAgg bool) {
		if e == nil {
			return
		}
		visit(e, inAgg)
		switch x := e.(type) {
		case *ArrayLit:
			for _, el := range x.Elems {
				rec(el, inAgg)
			}
		case *Unary:
			rec(x.X, inAgg)
		case *Binary:
			rec(x.L, inAgg)
			rec(x.R, inAgg)
		case *FuncCall:
			inAgg = inAgg || isAggregateCall(x)
			for _, a := range x.Args {
				rec(a, inAgg)
			}
			if x.Over != nil {
				for _, pe := range x.Over.PartitionBy {
					rec(pe, inAgg)
				}
				for _, k := range x.Over.OrderBy {
					rec(k.Expr, inAgg)
				}
			}
		}
	}
	rec(e, false)
}

// collectWindowCalls returns the window (OVER) calls in e.
func collectWindowCalls(e Expr) []*FuncCall {
	var out []*FuncCall
	walkExpr(e, func(x Expr) {
		if fc, ok := x.(*FuncCall); ok && fc.Over != nil {
			out = append(out, fc)
		}
	})
	return out
}

// exprHasWindow reports whether e contains any window call.
func exprHasWindow(e Expr) bool { return len(collectWindowCalls(e)) > 0 }

// walkExpr visits e and all children, pre-order.
func walkExpr(e Expr, visit func(Expr)) {
	walkAgg(e, func(x Expr, _ bool) { visit(x) })
}

// collectAggCalls returns the aggregate calls in e, outermost only (an
// aggregate nested inside another aggregate's arguments is an error
// reported later).
func collectAggCalls(e Expr) []*FuncCall {
	var out []*FuncCall
	walkAgg(e, func(x Expr, inAgg bool) {
		if fc, ok := x.(*FuncCall); ok && !inAgg && isAggregateCall(fc) {
			out = append(out, fc)
		}
	})
	return out
}

// exprHasAgg reports whether e contains any aggregate call.
func exprHasAgg(e Expr) bool { return len(collectAggCalls(e)) > 0 }

// exprHasNestedAgg reports an aggregate call inside an aggregate's
// arguments.
func exprHasNestedAgg(e Expr) bool {
	nested := false
	walkAgg(e, func(x Expr, inAgg bool) {
		if fc, ok := x.(*FuncCall); ok && inAgg && isAggregateCall(fc) {
			nested = true
		}
	})
	return nested
}

// resolveFuncArgs resolves madlib call arguments: column references
// become core.ColumnArg, constants fold, and any other expression over
// the table compiles to a core.ExprArg whose getters the method's builder
// can evaluate per row (the ROADMAP's "computed arguments for scalar
// aggregates" item). $n parameters cannot appear here: madlib builders
// resolve their arguments at plan time.
func resolveFuncArgs(call *FuncCall, cc *compileCtx) ([]any, error) {
	schema := cc.schema
	args := make([]any, len(call.Args))
	for i, a := range call.Args {
		if cr, ok := a.(*ColumnRef); ok {
			ci := schema.Index(cr.Name)
			if ci < 0 {
				return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, cr.Name)
			}
			if cc.nullable != nil && cc.nullable[ci] {
				// madlib builders read column storage directly and would
				// see the zero padding, not NULLs.
				return nil, execErrf("%s over column %q from the nullable side of a LEFT JOIN is not supported", call.Name, cr.Name)
			}
			args[i] = core.ColumnArg{Name: cr.Name}
			continue
		}
		if v, err := evalConst(a); err == nil {
			args[i] = v
			continue
		}
		if exprHasParam(a) {
			return nil, execErrf("%s argument %d: parameters are not allowed in madlib function arguments", call.Name, i+1)
		}
		if exprHasAgg(a) {
			return nil, execErrf("aggregate calls cannot be nested")
		}
		c, err := compileExpr(a, cc)
		if err != nil {
			return nil, fmt.Errorf("sql: %s argument %d: %w", call.Name, i+1, err)
		}
		args[i] = core.ExprArg{
			Name:  a.String(),
			Kind:  engineKindOf(c.kind),
			Float: bindFloat(c.asFloat()),
			Value: bindAny(c.a),
		}
	}
	return args, nil
}

// engineKindOf maps a compiled kind back to the engine's column kinds;
// dynamic expressions report Float (they are runtime-checked anyway).
func engineKindOf(k ckind) engine.Kind {
	switch k {
	case ckInt:
		return engine.Int
	case ckStr:
		return engine.String
	case ckBool:
		return engine.Bool
	case ckVec:
		return engine.Vector
	}
	return engine.Float
}

// bindFloat/bindAny drop the execEnv argument for consumers outside the
// SQL package (core.ExprArg getters). Safe because resolveFuncArgs
// rejects $n parameters in these positions.
func bindFloat(fn floatFn) func(engine.Row) (float64, error) {
	return func(r engine.Row) (float64, error) { return fn(r, nil) }
}

func bindAny(fn anyFn) func(engine.Row) (any, error) {
	return func(r engine.Row) (any, error) { return fn(r, nil) }
}

// outputName derives the column header for a select item, Postgres-style:
// explicit alias, else the column or function name, else "?column?".
func outputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.Expr.(type) {
	case *ColumnRef:
		return x.Name
	case *FuncCall:
		return x.Name
	}
	return "?column?"
}
