package sql

import (
	"fmt"
	"strings"

	"madlib/internal/assoc"
	"madlib/internal/bayes"
	"madlib/internal/bootstrap"
	"madlib/internal/core"
	"madlib/internal/crf"
	"madlib/internal/dtree"
	"madlib/internal/engine"
	"madlib/internal/igd"
	"madlib/internal/kmeans"
	"madlib/internal/lda"
	"madlib/internal/linregr"
	"madlib/internal/logregr"
	"madlib/internal/model"
	"madlib/internal/profile"
	"madlib/internal/quantile"
	"madlib/internal/sketch"
	"madlib/internal/svdmf"
	"madlib/internal/svm"
)

// This file binds the library's methods into the madlib.* SQL namespace.
// Bindings are registered with internal/core at package load, so the
// executor dispatches every call through the same registry that backs the
// Table-1 method inventory — SQL never hard-codes a method.

func init() {
	for _, f := range []core.SQLFunc{
		{
			Name: "linregr", Kind: core.SQLTableValued,
			Signature: "linregr(['model',] y, x)",
			Help:      "ordinary-least-squares linear regression with inference (§4.1); leading name persists the model",
			Invoke:    invokeLinregr,
		},
		{
			Name: "logregr", Kind: core.SQLTableValued,
			Signature: "logregr(['model',] y, x [, solver [, max_iter [, tolerance]]])",
			Help:      "binary logistic regression; solver irls|cg|igd (§4.2); leading name persists the model",
			Invoke:    invokeLogregr,
		},
		{
			Name: "predict", Kind: core.SQLScalar,
			Signature: "predict('model', f1, f2, ...)",
			Help:      "score rows against a model persisted in madlib_models (compiled + vectorized; dot product through the model's link function)",
		},
		{
			Name: "kmeans", Kind: core.SQLTableValued,
			Signature: "kmeans(coords, k [, seed])",
			Help:      "k-means clustering of a vector column (§4.3)",
			Invoke:    invokeKMeans,
		},
		{
			Name: "naive_bayes", Kind: core.SQLTableValued,
			Signature: "naive_bayes(class, attrs)",
			Help:      "naive Bayes class priors over a (text, vector) table",
			Invoke:    invokeNaiveBayes,
		},
		{
			Name: "c45", Kind: core.SQLTableValued,
			Signature: "c45(class, attrs)",
			Help:      "C4.5 decision-tree summary over a (text, vector) table",
			Invoke:    invokeC45,
		},
		{
			Name: "svm", Kind: core.SQLTableValued,
			Signature: "svm(['model',] y, x [, mode])",
			Help:      "linear SVM; mode classification|regression|novelty; leading name persists the model",
			Invoke:    invokeSVM,
		},
		{
			Name: "sgd_train", Kind: core.SQLTableValued,
			Signature: "sgd_train(['model',] loss, y, x [, epochs [, step [, seed]]])",
			Help:      "unified IGD trainer; loss logistic|hinge|least_squares, or sgd_train('factorization', i, j, v, rank, ...); leading name persists the model",
			Invoke:    invokeSGDTrain,
		},
		{
			Name: "assoc_rules", Kind: core.SQLTableValued,
			Signature: "assoc_rules(basket, item [, min_support [, min_confidence]])",
			Help:      "Apriori association rules over a (basket, item) table",
			Invoke:    invokeAssocRules,
		},
		{
			Name: "profile", Kind: core.SQLTableValued,
			Signature: "profile()",
			Help:      "per-column univariate summaries of the FROM table (§3.1.3)",
			Invoke:    invokeProfile,
		},
		{
			Name: "svdmf", Kind: core.SQLTableValued,
			Signature: "svdmf(i, j, v, rank [, max_passes])",
			Help:      "low-rank matrix factorization of sparse (i, j, v) cells by IGD",
			Invoke:    invokeSvdmf,
		},
		{
			Name: "lda", Kind: core.SQLTableValued,
			Signature: "lda(doc, word, topics [, iterations [, seed]])",
			Help:      "latent Dirichlet allocation over a (doc, word) token table",
			Invoke:    invokeLDA,
		},
		{
			Name: "bootstrap", Kind: core.SQLTableValued,
			Signature: "bootstrap(expr [, iterations [, fraction [, seed]]])",
			Help:      "m-of-n bootstrap of the mean of expr (§3.1.2 virtual-table pattern)",
			Invoke:    invokeBootstrap,
		},
		{
			Name: "crf", Kind: core.SQLTableValued,
			Signature: "crf(words, tags [, max_passes])",
			Help:      "linear-chain CRF training over a sentence table (§5); words/tags are space-separated token columns",
			Invoke:    invokeCRF,
		},
		{
			Name: "quantile", Kind: core.SQLAggregate,
			Signature: "quantile(expr, phi)",
			Help:      "exact phi-quantile of a numeric column or expression",
			BuildAggregate: func(schema engine.Schema, args []any) (engine.Aggregate, error) {
				if err := wantArgs("quantile", args, 2, 2); err != nil {
					return nil, err
				}
				get, err := floatRowArg("quantile", schema, args, 0)
				if err != nil {
					return nil, err
				}
				phi, err := floatArg("quantile", args, 1)
				if err != nil {
					return nil, err
				}
				if phi < 0 || phi > 1 {
					return nil, fmt.Errorf("quantile: phi %v outside [0,1]", phi)
				}
				return finalWrap{
					Aggregate: exactQuantileOver(get, []float64{phi}),
					fn:        func(v any) (any, error) { return v.([]float64)[0], nil },
				}, nil
			},
		},
		{
			Name: "approx_quantile", Kind: core.SQLAggregate,
			Signature: "approx_quantile(expr, eps, phi)",
			Help:      "Greenwald-Khanna eps-approximate phi-quantile",
			BuildAggregate: func(schema engine.Schema, args []any) (engine.Aggregate, error) {
				if err := wantArgs("approx_quantile", args, 3, 3); err != nil {
					return nil, err
				}
				get, err := floatRowArg("approx_quantile", schema, args, 0)
				if err != nil {
					return nil, err
				}
				eps, err := floatArg("approx_quantile", args, 1)
				if err != nil {
					return nil, err
				}
				phi, err := floatArg("approx_quantile", args, 2)
				if err != nil {
					return nil, err
				}
				if _, err := quantile.NewGK(eps); err != nil {
					return nil, err
				}
				return finalWrap{
					Aggregate: gkQuantileOver(get, eps, []float64{phi}),
					fn:        func(v any) (any, error) { return v.([]float64)[0], nil },
				}, nil
			},
		},
		{
			Name: "fmcount", Kind: core.SQLAggregate,
			Signature: "fmcount(expr)",
			Help:      "Flajolet-Martin approximate distinct count",
			BuildAggregate: func(schema engine.Schema, args []any) (engine.Aggregate, error) {
				if err := wantArgs("fmcount", args, 1, 1); err != nil {
					return nil, err
				}
				if ea, ok := args[0].(core.ExprArg); ok {
					return fmExprAggregate(ea.Value), nil
				}
				ci, err := anyColArg("fmcount", schema, args, 0)
				if err != nil {
					return nil, err
				}
				return sketch.FMAggregate(ci, schema[ci].Kind), nil
			},
		},
	} {
		core.RegisterSQLFunc(f)
	}
}

// finalWrap post-processes an aggregate's Final value (e.g. unwrap a
// one-element quantile slice into a scalar).
type finalWrap struct {
	engine.Aggregate
	fn func(any) (any, error)
}

func (w finalWrap) Final(state any) (any, error) {
	v, err := w.Aggregate.Final(state)
	if err != nil {
		return nil, err
	}
	return w.fn(v)
}

// errAccState wraps an accumulator with the first row-evaluation error,
// so computed-argument aggregates surface clean SQL errors instead of
// panicking mid-scan.
type errAccState[T any] struct {
	acc T
	err error
}

// exactQuantileOver is quantile.ExactAggregate with a per-row getter
// instead of a column index, so computed expressions (and Int columns)
// feed the exact quantile.
func exactQuantileOver(get func(engine.Row) (float64, error), phis []float64) engine.Aggregate {
	return engine.FuncAggregate{
		InitFn: func() any { return &errAccState[[]float64]{} },
		TransitionFn: func(s any, row engine.Row) any {
			st := s.(*errAccState[[]float64])
			if st.err != nil {
				return st
			}
			v, err := get(row)
			if err != nil {
				st.err = err
				return st
			}
			st.acc = append(st.acc, v)
			return st
		},
		MergeFn: func(a, b any) any {
			sa, sb := a.(*errAccState[[]float64]), b.(*errAccState[[]float64])
			if sa.err == nil {
				sa.err = sb.err
			}
			sa.acc = append(sa.acc, sb.acc...)
			return sa
		},
		FinalFn: func(s any) (any, error) {
			st := s.(*errAccState[[]float64])
			if st.err != nil {
				return nil, st.err
			}
			out := make([]float64, len(phis))
			for i, phi := range phis {
				q, err := quantile.Exact(st.acc, phi)
				if err != nil {
					return nil, err
				}
				out[i] = q
			}
			return out, nil
		},
	}
}

// gkQuantileOver is quantile.GKAggregate with a per-row getter; eps must
// be pre-validated by the caller.
func gkQuantileOver(get func(engine.Row) (float64, error), eps float64, phis []float64) engine.Aggregate {
	return engine.FuncAggregate{
		InitFn: func() any {
			gk, err := quantile.NewGK(eps)
			if err != nil {
				panic(err) // validated by callers
			}
			return &errAccState[*quantile.GK]{acc: gk}
		},
		TransitionFn: func(s any, row engine.Row) any {
			st := s.(*errAccState[*quantile.GK])
			if st.err != nil {
				return st
			}
			v, err := get(row)
			if err != nil {
				st.err = err
				return st
			}
			st.acc.Insert(v)
			return st
		},
		MergeFn: func(a, b any) any {
			sa, sb := a.(*errAccState[*quantile.GK]), b.(*errAccState[*quantile.GK])
			if sa.err == nil {
				sa.err = sb.err
			}
			sa.acc.Merge(sb.acc)
			return sa
		},
		FinalFn: func(s any) (any, error) {
			st := s.(*errAccState[*quantile.GK])
			if st.err != nil {
				return nil, st.err
			}
			out := make([]float64, len(phis))
			for i, phi := range phis {
				q, err := st.acc.Quantile(phi)
				if err != nil {
					return nil, err
				}
				out[i] = q
			}
			return out, nil
		},
	}
}

// fmExprAggregate counts distinct values of a computed expression with an
// FM sketch, hashing by the value's runtime type.
func fmExprAggregate(get func(engine.Row) (any, error)) engine.Aggregate {
	return engine.FuncAggregate{
		InitFn: func() any { return &errAccState[*sketch.FM]{acc: sketch.NewFM()} },
		TransitionFn: func(s any, row engine.Row) any {
			st := s.(*errAccState[*sketch.FM])
			if st.err != nil {
				return st
			}
			v, err := get(row)
			if err != nil {
				st.err = err
				return st
			}
			switch x := v.(type) {
			case int64:
				st.acc.AddInt(x)
			case float64:
				st.acc.AddFloat(x)
			case string:
				st.acc.AddString(x)
			case bool:
				if x {
					st.acc.AddInt(1)
				} else {
					st.acc.AddInt(0)
				}
			default:
				st.err = fmt.Errorf("fmcount: cannot count %T values", v)
			}
			return st
		},
		MergeFn: func(a, b any) any {
			sa, sb := a.(*errAccState[*sketch.FM]), b.(*errAccState[*sketch.FM])
			if sa.err == nil {
				sa.err = sb.err
			}
			sa.acc.Merge(sb.acc)
			return sa
		},
		FinalFn: func(s any) (any, error) {
			st := s.(*errAccState[*sketch.FM])
			if st.err != nil {
				return nil, st.err
			}
			return st.acc.Estimate(), nil
		},
	}
}

// Argument helpers. args follow the resolveFuncArgs convention: column
// references as core.ColumnArg, computed expressions as core.ExprArg,
// literals as Go scalars.

func wantArgs(fn string, args []any, min, max int) error {
	if len(args) < min || len(args) > max {
		if min == max {
			return fmt.Errorf("%s expects %d argument(s), got %d", fn, min, len(args))
		}
		return fmt.Errorf("%s expects %d to %d arguments, got %d", fn, min, max, len(args))
	}
	return nil
}

// anyColArg resolves args[i] as a column reference of any kind.
func anyColArg(fn string, schema engine.Schema, args []any, i int) (int, error) {
	ca, ok := args[i].(core.ColumnArg)
	if !ok {
		return 0, fmt.Errorf("%s: argument %d must be a column reference", fn, i+1)
	}
	ci := schema.Index(ca.Name)
	if ci < 0 {
		return 0, fmt.Errorf("%w: %q", engine.ErrNoColumn, ca.Name)
	}
	return ci, nil
}

// floatRowArg resolves args[i] as a numeric per-row input: a Float or Int
// column, or a computed numeric expression (core.ExprArg).
func floatRowArg(fn string, schema engine.Schema, args []any, i int) (func(engine.Row) (float64, error), error) {
	switch a := args[i].(type) {
	case core.ColumnArg:
		ci := schema.Index(a.Name)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, a.Name)
		}
		switch schema[ci].Kind {
		case engine.Float:
			return func(r engine.Row) (float64, error) { return r.Float(ci), nil }, nil
		case engine.Int:
			return func(r engine.Row) (float64, error) { return float64(r.Int(ci)), nil }, nil
		}
		return nil, fmt.Errorf("%s: column %q is %s, want %s", fn, a.Name, schema[ci].Kind, engine.Float)
	case core.ExprArg:
		if a.Kind != engine.Float && a.Kind != engine.Int {
			return nil, fmt.Errorf("%s: expression %s is %s, want numeric", fn, a.Name, a.Kind)
		}
		return a.Float, nil
	}
	return nil, fmt.Errorf("%s: argument %d must be a column or an expression over the input table", fn, i+1)
}

// colArg resolves args[i] as a column reference of the given kind (Float
// also accepts Int, matching the engine's numeric widening).
func colArg(fn string, schema engine.Schema, args []any, i int, kind engine.Kind) (int, error) {
	ci, err := anyColArg(fn, schema, args, i)
	if err != nil {
		return 0, err
	}
	got := schema[ci].Kind
	if got != kind && !(kind == engine.Float && got == engine.Int) {
		return 0, fmt.Errorf("%s: column %q is %s, want %s", fn, schema[ci].Name, got, kind)
	}
	return ci, nil
}

// colNameArg resolves args[i] as a column reference and returns its name
// after validating the kind (for Invoke bindings that pass names on to
// facade-style Run functions).
func colNameArg(fn string, schema engine.Schema, args []any, i int, kind engine.Kind) (string, error) {
	ci, err := colArg(fn, schema, args, i, kind)
	if err != nil {
		return "", err
	}
	return schema[ci].Name, nil
}

func floatArg(fn string, args []any, i int) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("%s: missing argument %d", fn, i+1)
	}
	f, ok := toFloat(args[i])
	if !ok {
		return 0, fmt.Errorf("%s: argument %d must be numeric", fn, i+1)
	}
	return f, nil
}

func intArg(fn string, args []any, i int) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("%s: missing argument %d", fn, i+1)
	}
	n, ok := args[i].(int64)
	if !ok {
		return 0, fmt.Errorf("%s: argument %d must be an integer", fn, i+1)
	}
	return n, nil
}

func strArg(fn string, args []any, i int) (string, error) {
	if i >= len(args) {
		return "", fmt.Errorf("%s: missing argument %d", fn, i+1)
	}
	s, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("%s: argument %d must be a string", fn, i+1)
	}
	return s, nil
}

// Table-valued bindings.

// persistModelName detects a trainer's persist call form — a leading
// string argument naming the model — and splits the name off. The
// normal forms of linregr/logregr/svm start with a column reference, so
// a leading plain string is unambiguous. (sgd_train, whose normal form
// starts with the loss string, detects the two-leading-strings shape
// inline instead.)
func persistModelName(args []any) (string, []any, bool) {
	if len(args) >= 2 {
		if s, ok := args[0].(string); ok {
			return s, args[1:], true
		}
	}
	return "", args, false
}

// persistResult writes the fitted model into the madlib_models catalog
// and returns the acknowledgment relation of the persist call form.
func persistResult(db *engine.DB, m model.Model) (engine.Schema, [][]any, error) {
	saved, err := model.Save(db, m)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "model", Kind: engine.String},
		{Name: "kind", Kind: engine.String},
		{Name: "dims", Kind: engine.Int},
		{Name: "num_rows", Kind: engine.Int},
		{Name: "version", Kind: engine.Int},
	}
	return out, [][]any{{saved.Name, saved.Kind, int64(len(saved.Coef)), saved.NumRows, saved.Version}}, nil
}

func invokeLinregr(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	modelName, args, persist := persistModelName(args)
	if err := wantArgs("linregr", args, 2, 2); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	y, err := colNameArg("linregr", schema, args, 0, engine.Float)
	if err != nil {
		return nil, nil, err
	}
	x, err := colNameArg("linregr", schema, args, 1, engine.Vector)
	if err != nil {
		return nil, nil, err
	}
	res, err := linregr.Run(db, t, y, x)
	if err != nil {
		return nil, nil, err
	}
	if persist {
		return persistResult(db, model.Model{Name: modelName, Kind: "linregr", Coef: res.Coef, NumRows: t.Count()})
	}
	out := engine.Schema{
		{Name: "coef", Kind: engine.Vector},
		{Name: "r2", Kind: engine.Float},
		{Name: "std_err", Kind: engine.Vector},
		{Name: "t_stats", Kind: engine.Vector},
		{Name: "p_values", Kind: engine.Vector},
		{Name: "condition_no", Kind: engine.Float},
	}
	row := []any{res.Coef, res.R2, res.StdErr, res.TStats, res.PValues, res.ConditionNo}
	return out, [][]any{row}, nil
}

func invokeLogregr(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	modelName, args, persist := persistModelName(args)
	if err := wantArgs("logregr", args, 2, 5); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	y, err := colNameArg("logregr", schema, args, 0, engine.Float)
	if err != nil {
		return nil, nil, err
	}
	x, err := colNameArg("logregr", schema, args, 1, engine.Vector)
	if err != nil {
		return nil, nil, err
	}
	opts := logregr.Options{}
	if len(args) >= 3 {
		solver, err := strArg("logregr", args, 2)
		if err != nil {
			return nil, nil, err
		}
		switch strings.ToLower(solver) {
		case "irls":
			opts.Solver = logregr.IRLS
		case "cg":
			opts.Solver = logregr.CG
		case "igd":
			opts.Solver = logregr.IGD
		default:
			return nil, nil, fmt.Errorf("logregr: unknown solver %q (want irls, cg or igd)", solver)
		}
	}
	if len(args) >= 4 {
		n, err := intArg("logregr", args, 3)
		if err != nil {
			return nil, nil, err
		}
		opts.MaxIterations = int(n)
	}
	if len(args) == 5 {
		if opts.Tolerance, err = floatArg("logregr", args, 4); err != nil {
			return nil, nil, err
		}
	}
	res, err := logregr.Run(db, t, y, x, opts)
	if err != nil {
		return nil, nil, err
	}
	if persist {
		return persistResult(db, model.Model{Name: modelName, Kind: "logregr", Coef: res.Coef, NumRows: t.Count()})
	}
	out := engine.Schema{
		{Name: "coef", Kind: engine.Vector},
		{Name: "log_likelihood", Kind: engine.Float},
		{Name: "std_err", Kind: engine.Vector},
		{Name: "z_stats", Kind: engine.Vector},
		{Name: "p_values", Kind: engine.Vector},
		{Name: "odds_ratios", Kind: engine.Vector},
		{Name: "num_iterations", Kind: engine.Int},
	}
	row := []any{res.Coef, res.LogLikelihood, res.StdErr, res.ZStats, res.PValues, res.OddsRatios, int64(res.Iterations)}
	return out, [][]any{row}, nil
}

func invokeKMeans(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("kmeans", args, 2, 3); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	coords, err := colNameArg("kmeans", schema, args, 0, engine.Vector)
	if err != nil {
		return nil, nil, err
	}
	k, err := intArg("kmeans", args, 1)
	if err != nil {
		return nil, nil, err
	}
	opts := kmeans.Options{K: int(k)}
	if len(args) == 3 {
		seed, err := intArg("kmeans", args, 2)
		if err != nil {
			return nil, nil, err
		}
		opts.Seed = seed
	}
	res, err := kmeans.Run(db, t, coords, opts)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "centroid_id", Kind: engine.Int},
		{Name: "centroid", Kind: engine.Vector},
		{Name: "size", Kind: engine.Int},
	}
	rows := make([][]any, len(res.Centroids))
	for i, c := range res.Centroids {
		rows[i] = []any{int64(i), c, res.Sizes[i]}
	}
	return out, rows, nil
}

func invokeNaiveBayes(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("naive_bayes", args, 2, 2); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	class, err := colNameArg("naive_bayes", schema, args, 0, engine.String)
	if err != nil {
		return nil, nil, err
	}
	attrs, err := colNameArg("naive_bayes", schema, args, 1, engine.Vector)
	if err != nil {
		return nil, nil, err
	}
	m, err := bayes.Train(db, t, class, attrs, bayes.Options{})
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "class", Kind: engine.String},
		{Name: "prior", Kind: engine.Float},
	}
	rows := make([][]any, len(m.Classes))
	for i, c := range m.Classes {
		rows[i] = []any{c, m.Priors[i]}
	}
	return out, rows, nil
}

func invokeC45(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("c45", args, 2, 2); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	class, err := colNameArg("c45", schema, args, 0, engine.String)
	if err != nil {
		return nil, nil, err
	}
	attrs, err := colNameArg("c45", schema, args, 1, engine.Vector)
	if err != nil {
		return nil, nil, err
	}
	m, err := dtree.Train(db, t, class, attrs, dtree.Options{})
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "nodes", Kind: engine.Int},
		{Name: "depth", Kind: engine.Int},
		{Name: "classes", Kind: engine.Int},
	}
	return out, [][]any{{int64(m.Size()), int64(m.Depth()), int64(len(m.Classes))}}, nil
}

func invokeSVM(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	modelName, args, persist := persistModelName(args)
	if err := wantArgs("svm", args, 2, 3); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	y, err := colNameArg("svm", schema, args, 0, engine.Float)
	if err != nil {
		return nil, nil, err
	}
	x, err := colNameArg("svm", schema, args, 1, engine.Vector)
	if err != nil {
		return nil, nil, err
	}
	opts := svm.Options{}
	if len(args) == 3 {
		mode, err := strArg("svm", args, 2)
		if err != nil {
			return nil, nil, err
		}
		switch strings.ToLower(mode) {
		case "classification":
			opts.Mode = svm.Classification
		case "regression":
			opts.Mode = svm.Regression
		case "novelty":
			opts.Mode = svm.Novelty
		default:
			return nil, nil, fmt.Errorf("svm: unknown mode %q", mode)
		}
	}
	m, err := svm.Train(db, t, y, x, opts)
	if err != nil {
		return nil, nil, err
	}
	if persist {
		return persistResult(db, model.Model{Name: modelName, Kind: "svm", Coef: m.Weights, NumRows: m.NumRows})
	}
	loss := 0.0
	if len(m.LossHistory) > 0 {
		loss = m.LossHistory[len(m.LossHistory)-1]
	}
	out := engine.Schema{
		{Name: "weights", Kind: engine.Vector},
		{Name: "final_loss", Kind: engine.Float},
		{Name: "num_rows", Kind: engine.Int},
	}
	return out, [][]any{{m.Weights, loss, m.NumRows}}, nil
}

// vectorColWidth probes the width of a Vector column straight off
// segment storage, or -1 when the table is empty.
func vectorColWidth(t *engine.Table, col int) int {
	for _, seg := range t.Segments() {
		if vecs := seg.Vectors(col); len(vecs) > 0 {
			return len(vecs[0])
		}
	}
	return -1
}

// invokeSGDTrain is the generic entry to the unified igd harness: any
// named loss trains over the FROM table with the same morsel-parallel
// vectorized epoch loop the dedicated learners use.
//
//	sgd_train('logistic'|'hinge'|'least_squares', y, x [, epochs [, step [, seed]]])
//	sgd_train('factorization', i, j, v, rank [, epochs [, step [, seed]]])
func invokeSGDTrain(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	// Persist form: the normal form already leads with the loss string,
	// so the model name is detected as TWO leading strings.
	var modelName string
	persist := false
	if len(args) >= 2 {
		if s0, ok0 := args[0].(string); ok0 {
			if _, ok1 := args[1].(string); ok1 {
				modelName, args, persist = s0, args[1:], true
			}
		}
	}
	if err := wantArgs("sgd_train", args, 3, 8); err != nil {
		return nil, nil, err
	}
	lossName, err := strArg("sgd_train", args, 0)
	if err != nil {
		return nil, nil, err
	}
	lname := strings.ToLower(lossName)
	if persist && lname == "factorization" {
		return nil, nil, fmt.Errorf("sgd_train: a factorization model is not a coefficient vector and cannot be persisted for predict")
	}
	schema := t.Schema()
	var feat igd.Features
	var loss igd.Loss
	opts := igd.Options{}
	var next int // index of the first optional argument
	if lname == "factorization" {
		if err := wantArgs("sgd_train", args, 5, 8); err != nil {
			return nil, nil, err
		}
		ii, err := colArg("sgd_train", schema, args, 1, engine.Int)
		if err != nil {
			return nil, nil, err
		}
		ji, err := colArg("sgd_train", schema, args, 2, engine.Int)
		if err != nil {
			return nil, nil, err
		}
		vi, err := colArg("sgd_train", schema, args, 3, engine.Float)
		if err != nil {
			return nil, nil, err
		}
		rank, err := intArg("sgd_train", args, 4)
		if err != nil {
			return nil, nil, err
		}
		if rank < 1 {
			return nil, nil, fmt.Errorf("sgd_train: rank must be positive, got %d", rank)
		}
		// Probe the factor-matrix dimensions off segment storage.
		maxI, maxJ := int64(-1), int64(-1)
		for _, seg := range t.Segments() {
			for _, v := range seg.Ints(ii) {
				if v > maxI {
					maxI = v
				}
			}
			for _, v := range seg.Ints(ji) {
				if v > maxJ {
					maxJ = v
				}
			}
		}
		if maxI < 0 {
			return nil, nil, igd.ErrNoData
		}
		f := igd.Factorization{Rows: int(maxI) + 1, Cols: int(maxJ) + 1, Rank: int(rank)}
		loss = f
		opts.Start = f.InitWeights(0.5)
		feat = igd.ColumnFeatures(vi, ii, ji)
		next = 5
	} else {
		if err := wantArgs("sgd_train", args, 3, 6); err != nil {
			return nil, nil, err
		}
		yi, err := colArg("sgd_train", schema, args, 1, engine.Float)
		if err != nil {
			return nil, nil, err
		}
		xi, err := colArg("sgd_train", schema, args, 2, engine.Vector)
		if err != nil {
			return nil, nil, err
		}
		k := vectorColWidth(t, xi)
		if k < 0 {
			return nil, nil, igd.ErrNoData
		}
		switch lname {
		case "logistic":
			loss = igd.Logistic{K: k}
		case "hinge":
			loss = igd.Hinge{K: k}
		case "least_squares":
			loss = igd.LeastSquares{K: k}
		default:
			return nil, nil, fmt.Errorf("sgd_train: unknown loss %q", lossName)
		}
		feat = igd.VectorFeatures(yi, xi)
		next = 3
	}
	if len(args) > next {
		epochs, err := intArg("sgd_train", args, next)
		if err != nil {
			return nil, nil, err
		}
		opts.Epochs = int(epochs)
	}
	if len(args) > next+1 {
		if opts.StepSize, err = floatArg("sgd_train", args, next+1); err != nil {
			return nil, nil, err
		}
	}
	if len(args) > next+2 {
		seed, err := intArg("sgd_train", args, next+2)
		if err != nil {
			return nil, nil, err
		}
		opts.Seed = seed
	}
	res, err := igd.Train(db, t, feat, loss, opts)
	if err != nil {
		return nil, nil, err
	}
	if persist {
		return persistResult(db, model.Model{Name: modelName, Kind: "sgd:" + lname, Coef: res.Weights, NumRows: res.NumRows})
	}
	final := 0.0
	if len(res.LossHistory) > 0 {
		final = res.LossHistory[len(res.LossHistory)-1]
	}
	out := engine.Schema{
		{Name: "loss", Kind: engine.String},
		{Name: "weights", Kind: engine.Vector},
		{Name: "final_loss", Kind: engine.Float},
		{Name: "epochs", Kind: engine.Int},
		{Name: "num_rows", Kind: engine.Int},
	}
	return out, [][]any{{lname, res.Weights, final, int64(res.Epochs), res.NumRows}}, nil
}

func invokeAssocRules(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("assoc_rules", args, 2, 4); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	basket, err := colNameArg("assoc_rules", schema, args, 0, engine.Int)
	if err != nil {
		return nil, nil, err
	}
	item, err := colNameArg("assoc_rules", schema, args, 1, engine.String)
	if err != nil {
		return nil, nil, err
	}
	opts := assoc.Options{}
	if len(args) >= 3 {
		if opts.MinSupport, err = floatArg("assoc_rules", args, 2); err != nil {
			return nil, nil, err
		}
	}
	if len(args) == 4 {
		if opts.MinConfidence, err = floatArg("assoc_rules", args, 3); err != nil {
			return nil, nil, err
		}
	}
	res, err := assoc.MineTable(db, t, basket, item, opts)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "antecedent", Kind: engine.String},
		{Name: "consequent", Kind: engine.String},
		{Name: "support", Kind: engine.Float},
		{Name: "confidence", Kind: engine.Float},
		{Name: "lift", Kind: engine.Float},
	}
	rows := make([][]any, len(res.Rules))
	for i, r := range res.Rules {
		rows[i] = []any{
			"{" + strings.Join(r.Antecedent, ",") + "}",
			"{" + strings.Join(r.Consequent, ",") + "}",
			r.Support, r.Confidence, r.Lift,
		}
	}
	return out, rows, nil
}

func invokeSvdmf(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("svdmf", args, 4, 5); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	iCol, err := colNameArg("svdmf", schema, args, 0, engine.Int)
	if err != nil {
		return nil, nil, err
	}
	jCol, err := colNameArg("svdmf", schema, args, 1, engine.Int)
	if err != nil {
		return nil, nil, err
	}
	vCol, err := colNameArg("svdmf", schema, args, 2, engine.Float)
	if err != nil {
		return nil, nil, err
	}
	rank, err := intArg("svdmf", args, 3)
	if err != nil {
		return nil, nil, err
	}
	opts := svdmf.Options{Rank: int(rank)}
	if len(args) == 5 {
		passes, err := intArg("svdmf", args, 4)
		if err != nil {
			return nil, nil, err
		}
		opts.MaxPasses = int(passes)
	}
	m, err := svdmf.Factorize(db, t, iCol, jCol, vCol, opts)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "rows", Kind: engine.Int},
		{Name: "cols", Kind: engine.Int},
		{Name: "rank", Kind: engine.Int},
		{Name: "rmse", Kind: engine.Float},
		{Name: "passes", Kind: engine.Int},
	}
	return out, [][]any{{int64(m.Rows), int64(m.Cols), int64(m.Rank), m.RMSE, int64(m.Passes)}}, nil
}

func invokeLDA(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("lda", args, 3, 5); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	docCol, err := colNameArg("lda", schema, args, 0, engine.Int)
	if err != nil {
		return nil, nil, err
	}
	wordCol, err := colNameArg("lda", schema, args, 1, engine.Int)
	if err != nil {
		return nil, nil, err
	}
	topics, err := intArg("lda", args, 2)
	if err != nil {
		return nil, nil, err
	}
	opts := lda.Options{Topics: int(topics)}
	if len(args) >= 4 {
		iters, err := intArg("lda", args, 3)
		if err != nil {
			return nil, nil, err
		}
		opts.Iterations = int(iters)
	}
	if len(args) == 5 {
		if opts.Seed, err = intArg("lda", args, 4); err != nil {
			return nil, nil, err
		}
	}
	m, err := lda.TrainTable(db, t, docCol, wordCol, opts)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "topic", Kind: engine.Int},
		{Name: "tokens", Kind: engine.Int},
		{Name: "top_words", Kind: engine.Vector},
	}
	rows := make([][]any, m.Topics)
	for k := 0; k < m.Topics; k++ {
		top := m.TopWords(k, 5)
		ids := make([]float64, len(top))
		for i, w := range top {
			ids[i] = float64(w)
		}
		rows[k] = []any{int64(k), int64(m.TopicTotal[k]), ids}
	}
	return out, rows, nil
}

func invokeBootstrap(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("bootstrap", args, 1, 4); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	get, err := floatRowArg("bootstrap", schema, args, 0)
	if err != nil {
		return nil, nil, err
	}
	opts := bootstrap.Options{}
	if len(args) >= 2 {
		iters, err := intArg("bootstrap", args, 1)
		if err != nil {
			return nil, nil, err
		}
		opts.Iterations = int(iters)
	}
	if len(args) >= 3 {
		if opts.SampleFraction, err = floatArg("bootstrap", args, 2); err != nil {
			return nil, nil, err
		}
	}
	if len(args) == 4 {
		if opts.Seed, err = intArg("bootstrap", args, 3); err != nil {
			return nil, nil, err
		}
	}
	// The resampled statistic is the mean of the argument expression,
	// folded through the same numeric accumulator the SQL avg uses.
	mean := engine.FuncAggregate{
		InitFn: func() any { return &errAccState[*numAccState]{acc: &numAccState{}} },
		TransitionFn: func(s any, row engine.Row) any {
			st := s.(*errAccState[*numAccState])
			if st.err != nil {
				return st
			}
			v, err := get(row)
			if err != nil {
				st.err = err
				return st
			}
			st.acc.n++
			st.acc.sum += v
			return st
		},
		MergeFn: func(a, b any) any {
			sa, sb := a.(*errAccState[*numAccState]), b.(*errAccState[*numAccState])
			if sa.err == nil {
				sa.err = sb.err
			}
			sa.acc.n += sb.acc.n
			sa.acc.sum += sb.acc.sum
			return sa
		},
		FinalFn: func(s any) (any, error) {
			st := s.(*errAccState[*numAccState])
			if st.err != nil {
				return nil, st.err
			}
			if st.acc.n == 0 {
				return 0.0, nil
			}
			return st.acc.sum / float64(st.acc.n), nil
		},
	}
	res, err := bootstrap.Run(db, t, mean, opts)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "mean", Kind: engine.Float},
		{Name: "std_err", Kind: engine.Float},
		{Name: "ci_low", Kind: engine.Float},
		{Name: "ci_high", Kind: engine.Float},
		{Name: "iterations", Kind: engine.Int},
	}
	return out, [][]any{{res.Mean, res.StdErr, res.CILow, res.CIHigh, int64(len(res.Estimates))}}, nil
}

func invokeCRF(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("crf", args, 2, 3); err != nil {
		return nil, nil, err
	}
	schema := t.Schema()
	wordsCol, err := colNameArg("crf", schema, args, 0, engine.String)
	if err != nil {
		return nil, nil, err
	}
	tagsCol, err := colNameArg("crf", schema, args, 1, engine.String)
	if err != nil {
		return nil, nil, err
	}
	opts := crf.TrainOptions{}
	if len(args) == 3 {
		passes, err := intArg("crf", args, 2)
		if err != nil {
			return nil, nil, err
		}
		opts.MaxPasses = int(passes)
	}
	// One sentence per row: words and tags are space-separated, parallel
	// token lists (the SQL-typable flavor of crf.LoadCorpus's layout).
	wi, ti := schema.Index(wordsCol), schema.Index(tagsCol)
	var corpus []crf.Sentence
	for _, row := range db.Rows(t) {
		words := strings.Fields(row[wi].(string))
		tags := strings.Fields(row[ti].(string))
		if len(words) != len(tags) {
			return nil, nil, fmt.Errorf("crf: sentence has %d words but %d tags", len(words), len(tags))
		}
		if len(words) == 0 {
			continue
		}
		sent := make(crf.Sentence, len(words))
		for i := range words {
			sent[i] = crf.Token{Word: words[i], Tag: tags[i]}
		}
		corpus = append(corpus, sent)
	}
	m, err := crf.Train(corpus, opts)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "tags", Kind: engine.Int},
		{Name: "features", Kind: engine.Int},
		{Name: "sentences", Kind: engine.Int},
	}
	return out, [][]any{{int64(len(m.Tags)), int64(m.FeatureCount()), int64(len(corpus))}}, nil
}

func invokeProfile(db *engine.DB, t *engine.Table, args []any) (engine.Schema, [][]any, error) {
	if err := wantArgs("profile", args, 0, 0); err != nil {
		return nil, nil, err
	}
	res, err := profile.RunTable(db, t)
	if err != nil {
		return nil, nil, err
	}
	out := engine.Schema{
		{Name: "column", Kind: engine.String},
		{Name: "type", Kind: engine.String},
		{Name: "rows", Kind: engine.Int},
		{Name: "distinct", Kind: engine.Int},
		{Name: "min", Kind: engine.Float},
		{Name: "max", Kind: engine.Float},
		{Name: "mean", Kind: engine.Float},
	}
	rows := make([][]any, len(res.Columns))
	for i, c := range res.Columns {
		rows[i] = []any{c.Name, c.Kind.String(), c.Rows, c.Distinct, c.Min, c.Max, c.Mean}
	}
	return out, rows, nil
}
