package sql

import (
	"math"
	"slices"

	"madlib/internal/engine"
)

// This file defines every built-in scalar function once, in one table
// that every evaluator reads: the closure compiler (compileFuncCall),
// the batch kernel compiler (compileBatchFuncCall), the run-time
// dispatch for arguments typed only at run time ($n parameters,
// output-stage slots, LEFT JOIN columns; scalarFunc.dynamic) and the
// static typer (inferKind). An entry is the function's forms — the
// argument kinds each takes, its result kind and its per-value
// operation — and the error for an argument of a kind no form takes.
// That argument-kind rule is one rule at both stages: a statically
// typed argument fails at plan time, a dynamically typed one with the
// same text at run time. The functions are strict, as in Postgres: a
// NULL argument gives a NULL result.

// scalarFunc is one built-in scalar function. A function of two
// arguments has a single form, so kinds that every position takes
// always select one.
type scalarFunc struct {
	forms []scalarForm
	// argErr is the error for argument i (from 0) of a kind, named
	// kind, that no form takes at that position.
	argErr func(name string, i int, kind string) error
	arity  int
	// out is the result kind every form shares, ckAny when it follows
	// the argument (abs).
	out ckind
}

var scalarFuncs = func() map[string]*scalarFunc {
	numeric := func(forms ...scalarForm) *scalarFunc {
		return newScalarFunc(func(name string, i int, _ string) error {
			return execErrf("%s: argument %d is not numeric", name, i+1)
		}, forms...)
	}
	pow := numeric(form(func(x, y float64) (float64, error) { return math.Pow(x, y), nil }))
	length := newScalarFunc(func(_ string, _ int, kind string) error {
		return execErrf("length: argument must be text or array, not %s", kind)
	},
		form(func(s string, _ none) (int64, error) { return int64(len(s)), nil }),
		form(func(v []float64, _ none) (int64, error) { return int64(len(v)), nil }))
	return map[string]*scalarFunc{
		// The minimum int64 wraps, as unary minus does.
		"abs":   numeric(form(func(x int64, _ none) (int64, error) { return max(x, -x), nil }), floatForm(math.Abs)),
		"sqrt":  numeric(floatForm(math.Sqrt)),
		"exp":   numeric(floatForm(math.Exp)),
		"ln":    numeric(floatForm(math.Log)),
		"floor": numeric(floatForm(math.Floor)),
		"ceil":  numeric(floatForm(math.Ceil)),
		"pow":   pow, "power": pow,
		"length": length, "array_length": length,
		// The index takes a value of any kind: one that is not an integer
		// is out of range, at run time.
		"array_get": newScalarFunc(func(string, int, string) error {
			return execErrf("array_get: first argument must be an array")
		}, form(func(v []float64, i any) (float64, error) {
			n, ok := i.(int64)
			if !ok || n < 1 || n > int64(len(v)) {
				return 0, execErrf("array_get: index %v out of range 1..%d", i, len(v))
			}
			return v[n-1], nil
		})),
	}
}()

func newScalarFunc(argErr func(name string, i int, kind string) error, forms ...scalarForm) *scalarFunc {
	fn := &scalarFunc{forms: forms, argErr: argErr, arity: len(forms[0].in), out: forms[0].out}
	for _, f := range forms {
		if f.out != fn.out {
			fn.out = ckAny
		}
	}
	return fn
}

// floatForm is a one-argument numeric form with a float result (an int
// argument widens).
func floatForm(op func(float64) float64) scalarForm {
	return form(func(x float64, _ none) (float64, error) { return op(x), nil })
}

// match selects the form that takes arguments of these kinds. It fails
// with the argument error when a known kind is taken by no form at its
// position, and returns no form and no error when some kind is ckAny:
// only the values decide then (dynamic).
func (fn *scalarFunc) match(name string, kinds []ckind) (*scalarForm, error) {
	for i, k := range kinds {
		if k != ckAny && !slices.ContainsFunc(fn.forms, func(f scalarForm) bool { return f.takes(i, k) }) {
			return nil, fn.argErr(name, i, k.String())
		}
	}
	if slices.Contains(kinds, ckAny) {
		return nil, nil
	}
	i := slices.IndexFunc(fn.forms, func(f scalarForm) bool { return f.takes(0, kinds[0]) })
	return &fn.forms[i], nil
}

// dynamic compiles a call with an argument typed only at run time: the
// arguments evaluate boxed, a NULL among them gives NULL, and the
// values' kinds select the form row by row (every value has a kind, so
// one matches or the argument error fires).
func (fn *scalarFunc) dynamic(name string, args []*compiled) *compiled {
	return cAny(func(r engine.Row, env *execEnv) (any, error) {
		vals, kinds := make([]any, len(args)), make([]ckind, len(args))
		for i, a := range args {
			v, err := a.a(r, env)
			if err != nil {
				return nil, err
			}
			vals[i], kinds[i] = v, valueKind(v)
		}
		if slices.Contains(vals, nil) {
			return nil, nil
		}
		f, err := fn.match(name, kinds)
		if f == nil {
			return nil, err
		}
		return f.apply(vals)
	})
}

// inferKind types a call for the static typer: by the result kind every
// form shares, or else by the form its arguments' kinds select.
func (fn *scalarFunc) inferKind(x *FuncCall, schema engine.Schema) (engine.Kind, error) {
	if fn.out != ckAny {
		return engineKindOf(fn.out), nil
	}
	kinds := make([]ckind, len(x.Args))
	for i, a := range x.Args {
		k, err := inferKind(a, schema)
		if err != nil {
			return 0, err
		}
		kinds[i] = kindOf(k)
	}
	f, err := fn.match(x.Name, kinds)
	if err != nil {
		return 0, err
	}
	return engineKindOf(f.out), nil
}

// scalarForm is one form of a built-in scalar function: the kinds of
// its arguments, its result kind (ckInt or ckFloat) and its per-value
// operation as each evaluator runs it — a typed row closure, a batch
// kernel (ok=false when an argument kind has no lane: Vector, boxed)
// and a call over boxed values.
type scalarForm struct {
	in      []ckind
	out     ckind
	closure func(args []*compiled) *compiled
	kernel  func(args []*bcompiled, bc *batchCompiler) (*bcompiled, bool)
	apply   func(args []any) (any, error)
}

// takes reports whether the form takes a kind k argument at position i:
// ckAny takes every kind, ckFloat an int too (widened).
func (f scalarForm) takes(i int, k ckind) bool {
	return f.in[i] == ckAny || f.in[i] == k || f.in[i] == ckFloat && k == ckInt
}

// none is the absent second argument of a one-argument form.
type none struct{}

const ckNone ckind = -1

// form builds a form from its per-value operation op: a float64, int64,
// string, []float64 or any (a value of every kind) per argument, none
// for an absent second one, and an int64 or float64 result.
func form[A, B, R any](op func(A, B) (R, error)) scalarForm {
	in := []ckind{kindFor[A]()}
	if k := kindFor[B](); k != ckNone {
		in = append(in, k)
	}
	return scalarForm{in: in, out: kindFor[R](),
		closure: func(args []*compiled) *compiled {
			a, b := rowArg[A](args, 0), rowArg[B](args, 1)
			return rowResult(rowFn[R](func(r engine.Row, env *execEnv) (res R, err error) {
				x, err := a(r, env)
				if err != nil {
					return res, err
				}
				y, err := b(r, env)
				if err != nil {
					return res, err
				}
				return op(x, y)
			}))
		},
		kernel: func(args []*bcompiled, bc *batchCompiler) (*bcompiled, bool) {
			a, aLane, okA := laneArg[A](args, 0, bc)
			b, bLane, okB := laneArg[B](args, 1, bc)
			if !okA || !okB {
				return nil, false
			}
			return laneResult(laneKernel[R](func(e *batchEval, cb engine.ColBatch, sel selVec, out []R) (err error) {
				xs, ys := aLane(e, len(sel)), bLane(e, len(sel))
				if err = a(e, cb, sel, xs); err == nil {
					err = b(e, cb, sel, ys)
				}
				for j := 0; err == nil && j < len(out); j++ {
					out[j], err = op(xs[j], ys[j])
				}
				return err
			})), true
		},
		apply: func(args []any) (any, error) {
			v, err := op(boxedArg[A](args, 0), boxedArg[B](args, 1))
			return v, err
		},
	}
}

// kindFor is the kind of a form's argument or result type.
func kindFor[T any]() ckind {
	var z T
	if _, ok := any(z).(none); ok {
		return ckNone
	}
	return valueKind(z)
}

// rowArg is argument i as the typed closure a form's operation reads.
func rowArg[T any](args []*compiled, i int) rowFn[T] {
	if i == len(args) {
		return func(engine.Row, *execEnv) (z T, _ error) { return z, nil }
	}
	var fn any = args[i].a
	switch kindFor[T]() {
	case ckFloat:
		fn = args[i].asFloat()
	case ckInt:
		fn = args[i].i
	case ckStr:
		fn = args[i].s
	case ckVec:
		fn = args[i].v
	}
	return fn.(rowFn[T])
}

// laneArg is argument i as a kernel and its scratch lane; ok=false when
// its kind has no lane.
func laneArg[T any](args []*bcompiled, i int, bc *batchCompiler) (laneKernel[T], func(*batchEval, int) []T, bool) {
	var k, lane any
	switch kind := kindFor[T](); {
	case i == len(args):
		k = laneKernel[none](func(*batchEval, engine.ColBatch, selVec, []none) error { return nil })
		lane = func(_ *batchEval, n int) []none { return make([]none, n) }
	case kind == ckFloat:
		k, lane = args[i].asF(bc), bc.floatLane()
	case kind == ckInt:
		k, lane = args[i].i, bc.intLane()
	case kind == ckStr:
		k, lane = args[i].s, bc.strLane()
	default:
		return nil, nil, false
	}
	return k.(laneKernel[T]), lane.(func(*batchEval, int) []T), true
}

// boxedArg is boxed argument i as the form's operation reads it.
func boxedArg[T any](args []any, i int) T {
	if i == len(args) {
		return *new(T)
	}
	v := args[i]
	if kindFor[T]() == ckFloat {
		v, _ = toFloat(v)
	}
	return v.(T)
}

func rowResult[R any](fn rowFn[R]) *compiled {
	if f, ok := any(fn).(intFn); ok {
		return cInt(f)
	}
	return cFloat(any(fn).(floatFn))
}

func laneResult[R any](k laneKernel[R]) *bcompiled {
	if i, ok := any(k).(iBatchKernel); ok {
		return &bcompiled{kind: ckInt, i: i}
	}
	return &bcompiled{kind: ckFloat, f: any(k).(fBatchKernel)}
}
