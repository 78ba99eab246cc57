package sql

import (
	"madlib/internal/engine"
	"madlib/internal/metrics"
	"madlib/internal/model"
)

// madlib.predict('model', f1, f2, ...) scores rows against a model
// persisted in the madlib_models catalog. The planner resolves the
// model ONCE at compile time — the name must be a string literal — and
// freezes its coefficients and link function into the plan, so per-row
// scoring touches no catalog state at all. A frozen model is a plan
// dependency exactly like a scanned table: modelDep records the catalog
// table binding and version at resolution time, planSource.valid checks
// it, and the session plan cache replans on the first execution after
// the model is overwritten (model.Save swaps the catalog table pointer).
//
// Scoring has both lanes. The row lane is the semantic oracle: one
// compiled closure per call, features evaluated in argument order into
// a running dot product, then the link function. The batch lane gathers
// each feature into an unboxed float64 lane over the selected rows and
// accumulates coef[i]*lane_i in the same argument order before applying
// the same link function value — the float operation sequence per row is
// identical, so the two lanes produce bit-identical scores.

// modelDep is one plan-frozen model: the resolved model plus the
// catalog binding that makes staleness detectable, and the lane outcome
// EXPLAIN reports.
type modelDep struct {
	m       model.Model
	table   *engine.Table
	version int64

	// batch records whether a batch scoring kernel was built for this
	// model; reason says why not (empty when unknown, e.g. the whole
	// plan stayed on the row lane).
	batch  bool
	reason string
}

// valid reports whether the frozen model still matches the catalog: the
// table pointer (Save rewrites the table) and its version (a direct
// INSERT into madlib_models mutates in place) are both unchanged.
func (d *modelDep) valid(db *engine.DB) bool {
	t, err := db.Table(model.TableName)
	return err == nil && t == d.table && t.Version() == d.version
}

// resolvePredictDep resolves the model name literal of a predict call
// against the catalog and records the dependency on the plan source.
// Repeated calls for the same model (row lane then batch lane, or the
// same model scored twice in one query) share one dep.
func resolvePredictDep(x *FuncCall, src *planSource) (*modelDep, error) {
	if src == nil || src.db == nil {
		return nil, execErrf("madlib.predict is not supported in this context")
	}
	if len(x.Args) < 2 {
		return nil, execErrf("predict expects a model name and at least one feature: predict('model', f1, ...)")
	}
	lit, ok := x.Args[0].(*Literal)
	if !ok {
		return nil, execErrf("predict: the model name must be a string literal (models are resolved at plan time)")
	}
	name, ok := lit.Val.(string)
	if !ok {
		return nil, execErrf("predict: the model name must be a string literal, not %s", valueTypeName(lit.Val))
	}
	for _, dep := range src.models {
		if dep.m.Name == name {
			return dep, nil
		}
	}
	m, tbl, ver, err := model.Load(src.db, name)
	if err != nil {
		return nil, err
	}
	if got := len(x.Args) - 1; got != len(m.Coef) {
		return nil, execErrf("predict: model %q scores %d feature(s), got %d", name, len(m.Coef), got)
	}
	dep := &modelDep{m: m, table: tbl, version: ver}
	src.models = append(src.models, dep)
	return dep, nil
}

// predictCounters resolves the scoring metrics once per compilation.
func predictCounters(db *engine.DB) (rows, batches *metrics.Counter) {
	return db.Metrics().Counter("predict_rows"), db.Metrics().Counter("predict_batches")
}

// compilePredictRow lowers a predict call onto the row lane.
func compilePredictRow(x *FuncCall, cc *compileCtx) (*compiled, error) {
	dep, err := resolvePredictDep(x, cc.src)
	if err != nil {
		return nil, err
	}
	// Each feature evaluates to (value, isNull): typed numeric arguments
	// can never be NULL, boxed ones (LEFT JOIN padding, $n parameters)
	// yield NULL through, and a NULL feature makes the score NULL.
	type featFn func(engine.Row, *execEnv) (float64, bool, error)
	feats := make([]featFn, len(x.Args)-1)
	nullable := false
	for i, a := range x.Args[1:] {
		c, err := compileExpr(a, cc)
		if err != nil {
			return nil, err
		}
		argNo := i + 1
		switch c.kind {
		case ckFloat, ckInt:
			fn := c.asFloat()
			feats[i] = func(r engine.Row, env *execEnv) (float64, bool, error) {
				v, err := fn(r, env)
				return v, false, err
			}
		case ckAny:
			nullable = true
			fn := c.a
			feats[i] = func(r engine.Row, env *execEnv) (float64, bool, error) {
				v, err := fn(r, env)
				if err != nil {
					return 0, false, err
				}
				if v == nil {
					return 0, true, nil
				}
				f, ok := toFloat(v)
				if !ok {
					return 0, false, execErrf("predict: feature argument %d is %s, not numeric", argNo, valueTypeName(v))
				}
				return f, false, nil
			}
		default:
			return nil, execErrf("predict: feature argument %d is %s, not numeric", argNo, c.kind)
		}
	}
	coef := dep.m.Coef
	link, _ := model.Link(dep.m.Kind)
	rowsC, _ := predictCounters(cc.src.db)
	score := func(r engine.Row, env *execEnv) (float64, bool, error) {
		s := 0.0
		for i, fn := range feats {
			v, null, err := fn(r, env)
			if err != nil || null {
				return 0, null, err
			}
			s += coef[i] * v
		}
		rowsC.Inc()
		return link(s), false, nil
	}
	if !nullable {
		return cFloat(func(r engine.Row, env *execEnv) (float64, error) {
			v, _, err := score(r, env)
			return v, err
		}), nil
	}
	return cAny(func(r engine.Row, env *execEnv) (any, error) {
		v, null, err := score(r, env)
		if err != nil || null {
			return nil, err
		}
		return v, nil
	}), nil
}

// compileBatchPredict lowers a predict call onto the batch lane: gather
// each feature into an unboxed lane, fused multiply-add per coefficient
// in argument order, one link pass. ok=false (with the reason recorded
// on the dep for EXPLAIN) keeps the call on the row lane.
func compileBatchPredict(x *FuncCall, bc *batchCompiler) (*bcompiled, bool) {
	if bc.src == nil || bc.src.db == nil {
		return nil, false
	}
	dep, err := resolvePredictDep(x, bc.src)
	if err != nil {
		// The row-lane compile already reported this error; nothing to
		// record.
		return nil, false
	}
	fks := make([]fBatchKernel, len(x.Args)-1)
	var valid bBatchKernel
	for i, a := range x.Args[1:] {
		c, ok := compileBatchExpr(a, bc)
		if !ok {
			dep.reason = execErrf("feature argument %d has no batch lowering", i+1).Error()
			return nil, false
		}
		if c.scalar != nil {
			dep.reason = execErrf("feature argument %d is a $n parameter", i+1).Error()
			return nil, false
		}
		if c.kind != ckFloat && c.kind != ckInt {
			dep.reason = execErrf("feature argument %d is not numeric", i+1).Error()
			return nil, false
		}
		fks[i] = c.asF(bc)
		valid = validAnd(valid, c.valid, bc)
	}
	coef := dep.m.Coef
	link, _ := model.Link(dep.m.Kind)
	rowsC, batchesC := predictCounters(bc.src.db)
	slot := bc.floatSlot()
	out := &bcompiled{kind: ckFloat,
		f: func(e *batchEval, b engine.ColBatch, sel selVec, out []float64) error {
			for j := range out {
				out[j] = 0
			}
			tmp := e.f(slot, len(sel))
			for i, fk := range fks {
				if err := fk(e, b, sel, tmp); err != nil {
					return err
				}
				c := coef[i]
				for j, v := range tmp {
					out[j] += c * v
				}
			}
			for j := range out {
				out[j] = link(out[j])
			}
			rowsC.Add(int64(len(sel)))
			batchesC.Inc()
			return nil
		}}
	if valid != nil {
		// NULL-padded features (LEFT JOIN): score only the valid rows and
		// carry the validity out, matching the row lane's NULL-in-NULL-out.
		wrapped, ok := wrapNullable(out, valid, bc)
		if !ok {
			dep.reason = "NULL-padded features have no batch lowering"
			return nil, false
		}
		out = wrapped
	}
	dep.batch = true
	dep.reason = ""
	return out, true
}
