// Package linregr implements ordinary-least-squares linear regression as a
// user-defined aggregate, following §4.1 of the paper: the transition
// function accumulates XᵀX and Xᵀy per row, merge adds transition states,
// and the final function solves the normal equations via a symmetric
// pseudo-inverse and reports the full inference record (coefficients, R²,
// standard errors, t statistics, p-values, condition number).
//
// Four generations of the transition are provided. The three historical
// ones reproduce the §4.4 performance study row at a time, and their
// relative timings (Figure 4) are the per-row abstraction-layer overheads
// the paper profiles:
//
//   - V01Alpha — "an implementation in C that computes the outer-vector
//     products xᵢxᵢᵀ as a simple nested loop": bypasses the AnyType
//     abstraction layer, accumulates the full k×k square.
//   - V021Beta — the Armadillo/untuned-BLAS generation: goes through the
//     abstraction layer, copies the row vector into freshly allocated
//     memory each call, takes a backend lock per call, and accumulates the
//     square with a cache-hostile column-major walk (the slow row-vector
//     product path the paper profiles).
//   - V03 — the Eigen generation: zero-copy vector mapping through the
//     abstraction layer and a lower-triangular symmetric update
//     (triangularView<Lower>), then a symmetric pseudo-inverse solve.
//
// VBatch is the default, and what SQL, the facade and the benchmarks run.
// It is V03's arithmetic behind a batch transition (engine.BatchAggregate):
// y and x are read straight off the column lanes, so nothing is boxed per
// row, and surviving rows go to the blocked rank-4 kernel
// array.OuterProductLowerBlock4 four at a time, which touches each cell of
// XᵀX once per four rows instead of once per row. The kernel adds the
// four products in row order, so VBatch is bit-identical to V03 — which
// therefore doubles as its differential oracle — and about twice as fast at
// k=40. It has no row transition; the engine's row-taking drivers
// (RunGroupBy) hand it one-row batches.
package linregr

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"madlib/internal/array"
	"madlib/internal/core"
	"madlib/internal/engine"
	"madlib/internal/matrix"
	"madlib/internal/stats"
)

func init() {
	core.RegisterMethod(core.MethodInfo{Name: "linregr", Title: "Linear Regression", Category: core.Supervised})
}

// Version selects one of the four implementation generations.
type Version int

const (
	// VBatch is the batch-transition, blocked-kernel implementation
	// (default).
	VBatch Version = iota
	// V03 is the last row-at-a-time implementation, VBatch's oracle.
	V03
	// V01Alpha is the original plain-C-style implementation.
	V01Alpha
	// V021Beta is the slow untuned-library implementation.
	V021Beta
)

// String returns the paper's version label.
func (v Version) String() string {
	switch v {
	case VBatch:
		return "batch"
	case V03:
		return "v0.3"
	case V01Alpha:
		return "v0.1alpha"
	case V021Beta:
		return "v0.2.1beta"
	}
	return fmt.Sprintf("version(%d)", int(v))
}

// ErrNoData is returned when the aggregate saw no usable rows.
var ErrNoData = errors.New("linregr: no data rows")

// Result is the composite value linregr returns, matching the psql record
// shown in §4.1.1 of the paper.
type Result struct {
	// Coef are the fitted coefficients b̂ = (XᵀX)⁺ Xᵀy.
	Coef []float64
	// R2 is the coefficient of determination.
	R2 float64
	// StdErr are the per-coefficient standard errors.
	StdErr []float64
	// TStats are the per-coefficient t statistics.
	TStats []float64
	// PValues are two-sided p-values against Student-t(n-k).
	PValues []float64
	// ConditionNo is the condition number of XᵀX.
	ConditionNo float64
	// NumRows is the number of rows accumulated.
	NumRows int64
}

// String renders the result in the style of the paper's psql output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coef         | %s\n", fmtVec(r.Coef))
	fmt.Fprintf(&b, "r2           | %.4f\n", r.R2)
	fmt.Fprintf(&b, "std_err      | %s\n", fmtVec(r.StdErr))
	fmt.Fprintf(&b, "t_stats      | %s\n", fmtVec(r.TStats))
	fmt.Fprintf(&b, "p_values     | %s\n", fmtVecE(r.PValues))
	fmt.Fprintf(&b, "condition_no | %.4f", r.ConditionNo)
	return b.String()
}

func fmtVec(xs []float64) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func fmtVecE(xs []float64) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprintf("%.4e", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// state is the transition state, the analogue of LinRegrTransitionState: a
// flat record of counts and running sums that merge can add element-wise.
type state struct {
	k          int
	numRows    int64
	ySum       float64
	ySquareSum float64
	xtY        []float64 // Xᵀy, length k
	xtX        []float64 // XᵀX, k×k row-major (lower triangle only for V03/VBatch)
	lowerOnly  bool
	err        error
}

func (s *state) init(k int, lowerOnly bool) {
	s.k = k
	s.xtY = make([]float64, k)
	s.xtX = make([]float64, k*k)
	s.lowerOnly = lowerOnly
}

func (s *state) accumulate(y float64, x []float64) {
	s.numRows++
	s.ySum += y
	s.ySquareSum += y * y
	array.Axpy(y, x, s.xtY)
}

func widthError(got, want int) error {
	return fmt.Errorf("linregr: row has %d independent variables, expected %d", got, want)
}

type config struct {
	version Version
	// gate and alloc exist so benchmarks can observe the v0.2.1beta
	// overhead channels; Run wires package-level defaults.
	gate  *core.BackendGate
	alloc *core.Allocator
}

// Option configures Run.
type Option func(*config)

// WithVersion selects the implementation generation.
func WithVersion(v Version) Option { return func(c *config) { c.version = v } }

// transitionBatch is VBatch's only transition: V03's screening, width
// check and accumulation order over the y/x lanes of one batch, with the
// XᵀX update deferred until four rows are in hand. An error stops the
// batch at the offending row, as V03 stops folding there.
func transitionBatch(yIdx, xIdx int) func(any, engine.ColBatch) any {
	return func(s any, b engine.ColBatch) any {
		st := s.(*state)
		if st.err != nil {
			return st
		}
		ys := b.Floats(yIdx)
		var blk [4][]float64
		n := 0
		for i, x := range b.Vectors(xIdx) {
			y := ys[i]
			if math.IsNaN(y) || !array.AllFinite(x) {
				continue
			}
			if st.k == 0 {
				st.init(len(x), true)
			}
			if len(x) != st.k {
				st.err = widthError(len(x), st.k)
				break
			}
			st.accumulate(y, x)
			blk[n] = x
			if n++; n == len(blk) {
				array.OuterProductLowerBlock4(st.xtX, blk[0], blk[1], blk[2], blk[3])
				n = 0
			}
		}
		for _, x := range blk[:n] {
			array.OuterProductLower(st.xtX, x)
		}
		return st
	}
}

// newAggregate builds the UDA for the configured version. yIdx and xIdx are
// resolved column indexes; bind is the abstraction-layer binding used by
// the V03/V021Beta paths.
func newAggregate(cfg *config, bind *core.Binding, yIdx, xIdx int) engine.Aggregate {
	transition := func(s any, row engine.Row) any {
		st := s.(*state)
		if st.err != nil {
			return st
		}
		var y float64
		var x []float64
		switch cfg.version {
		case V01Alpha:
			// Direct typed access, no bridging: the raw-C path.
			y = row.Float(yIdx)
			x = row.Vector(xIdx)
		case V021Beta:
			// Per-call backend lock plus a defensive copy of the row
			// vector into freshly allocated memory — the overheads the
			// paper profiled out of the first abstraction layer.
			cfg.gate.Enter()
			args := bind.Bridge(row)
			y = args.At(0).Float()
			imm := args.At(1).Vector()
			x = cfg.alloc.AllocVector(len(imm))
			copy(x, imm)
		default: // V03
			// AnyType bridging with zero-copy vector mapping (Listing 1).
			args := bind.Bridge(row)
			y = args.At(0).Float()
			x = args.At(1).Vector()
			if math.IsNaN(y) || !array.AllFinite(x) {
				return st // finiteness screening, as the real v0.3 does
			}
		}
		if st.k == 0 {
			// "The first row determines the number of independent
			// variables" (Listing 1).
			st.init(len(x), cfg.version == V03)
		}
		if len(x) != st.k {
			st.err = widthError(len(x), st.k)
			return st
		}
		st.accumulate(y, x)
		switch cfg.version {
		case V01Alpha:
			array.OuterProductFull(st.xtX, x)
		case V021Beta:
			// The Armadillo-era `X_transp_X += y.t()*y` materialized the
			// full k×k product in a freshly allocated temporary (the slow
			// row-vector path of §4.4) before adding it into the state:
			// one k² allocation plus a second k² memory pass per row.
			tmp := cfg.alloc.AllocVector(st.k * st.k)
			array.OuterProductColumnMajor(tmp, x)
			array.AddTo(st.xtX, tmp)
		default:
			array.OuterProductLower(st.xtX, x)
		}
		return st
	}

	merge := func(a, b any) any {
		sa, sb := a.(*state), b.(*state)
		if sa.err != nil {
			return sa
		}
		if sb.err != nil {
			return sb
		}
		if sb.numRows == 0 {
			return sa
		}
		if sa.numRows == 0 {
			return sb
		}
		if sa.k != sb.k {
			sa.err = fmt.Errorf("linregr: segment states disagree on width (%d vs %d)", sa.k, sb.k)
			return sa
		}
		sa.numRows += sb.numRows
		sa.ySum += sb.ySum
		sa.ySquareSum += sb.ySquareSum
		array.AddTo(sa.xtY, sb.xtY)
		array.AddTo(sa.xtX, sb.xtX)
		return sa
	}

	final := func(s any) (any, error) {
		st := s.(*state)
		if st.err != nil {
			return nil, st.err
		}
		if st.numRows == 0 {
			return nil, ErrNoData
		}
		return finalize(st)
	}

	agg := engine.FuncAggregate{
		InitFn:  func() any { return &state{} },
		MergeFn: merge,
		FinalFn: final,
	}
	if cfg.version == VBatch {
		agg.TransitionBatchFn = transitionBatch(yIdx, xIdx)
	} else {
		agg.TransitionFn = transition
	}
	return agg
}

// finalize is the final function of Listing 2: invert XᵀX, compute the
// coefficients, and report the inference statistics. Like MADlib v0.3 it
// "takes advantage of the fact that the matrix XᵀX is symmetric positive
// definite": the fast path is a Cholesky-based inverse with a
// power-iteration condition estimate, falling back to the eigenvalue
// pseudo-inverse for rank-deficient designs.
func finalize(st *state) (*Result, error) {
	k := st.k
	n := float64(st.numRows)
	xtx := st.xtX
	if st.lowerOnly {
		array.SymmetrizeLower(xtx, k)
	}
	m := matrix.FromFlat(k, k, xtx)
	var pinv *matrix.Matrix
	var cond float64
	if chol, err := matrix.Cholesky(m); err == nil {
		pinv, err = matrix.InverseFromCholesky(chol)
		if err == nil {
			cond, err = matrix.ConditionSPD(m, chol)
		}
		if err != nil {
			pinv = nil // fall through to the pseudo-inverse path
		}
	}
	if pinv == nil {
		var err error
		pinv, cond, err = matrix.PseudoInverse(m)
		if err != nil {
			return nil, fmt.Errorf("linregr: %w", err)
		}
	}
	coef, err := pinv.MulVec(st.xtY)
	if err != nil {
		return nil, err
	}
	// SSE = yᵀy − b̂ᵀXᵀy (valid because b̂ solves the normal equations);
	// SST = yᵀy − n·ȳ².
	sse := st.ySquareSum - array.Dot(coef, st.xtY)
	if sse < 0 {
		sse = 0 // numerical guard
	}
	sst := st.ySquareSum - st.ySum*st.ySum/n
	r2 := math.NaN()
	if sst > 0 {
		r2 = 1 - sse/sst
	}
	dof := n - float64(k)
	res := &Result{
		Coef:        coef,
		R2:          r2,
		ConditionNo: cond,
		NumRows:     st.numRows,
		StdErr:      make([]float64, k),
		TStats:      make([]float64, k),
		PValues:     make([]float64, k),
	}
	var sigma2 float64
	if dof > 0 {
		sigma2 = sse / dof
	}
	for i := 0; i < k; i++ {
		v := sigma2 * pinv.At(i, i)
		if v < 0 {
			v = 0
		}
		res.StdErr[i] = math.Sqrt(v)
		if res.StdErr[i] > 0 {
			res.TStats[i] = coef[i] / res.StdErr[i]
		} else {
			res.TStats[i] = math.NaN()
		}
		if dof > 0 && !math.IsNaN(res.TStats[i]) {
			res.PValues[i] = stats.StudentTPValue(res.TStats[i], dof)
		} else {
			res.PValues[i] = math.NaN()
		}
	}
	return res, nil
}

// Run executes SELECT (linregr(y, x)).* FROM table. yCol must be a Float
// column, xCol a Vector column whose width is constant across rows. An
// intercept is fitted only if the data includes a constant-1 component,
// matching MADlib's convention.
func Run(db *engine.DB, table *engine.Table, yCol, xCol string, opts ...Option) (*Result, error) {
	cfg := &config{gate: &core.BackendGate{}, alloc: &core.Allocator{}}
	for _, o := range opts {
		o(cfg)
	}
	agg, err := buildAggregate(cfg, table, yCol, xCol)
	if err != nil {
		return nil, err
	}
	v, err := db.Run(table, agg)
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// RunGroupBy executes SELECT key, (linregr(y, x)).* FROM table GROUP BY key
// — linregr is a true aggregate and composes with grouping, the property
// §4.2.1 contrasts against the driver-based logregr interface.
func RunGroupBy(db *engine.DB, table *engine.Table, yCol, xCol string, key func(engine.Row) string, opts ...Option) (map[string]*Result, error) {
	cfg := &config{gate: &core.BackendGate{}, alloc: &core.Allocator{}}
	for _, o := range opts {
		o(cfg)
	}
	agg, err := buildAggregate(cfg, table, yCol, xCol)
	if err != nil {
		return nil, err
	}
	raw, err := db.RunGroupBy(table, key, agg)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(raw))
	for k, v := range raw {
		out[k] = v.(*Result)
	}
	return out, nil
}

// BuildAggregate exposes the configured UDA so benchmark harnesses can run
// it through the engine's instrumented executors (RunInstrumented /
// RunSimulated) for the Figure 4/5 timing experiments.
func BuildAggregate(table *engine.Table, yCol, xCol string, opts ...Option) (engine.Aggregate, error) {
	cfg := &config{gate: &core.BackendGate{}, alloc: &core.Allocator{}}
	for _, o := range opts {
		o(cfg)
	}
	return buildAggregate(cfg, table, yCol, xCol)
}

func buildAggregate(cfg *config, table *engine.Table, yCol, xCol string) (engine.Aggregate, error) {
	schema := table.Schema()
	bind, err := core.BindColumns(schema, yCol, xCol)
	if err != nil {
		return nil, err
	}
	yIdx, xIdx := schema.Index(yCol), schema.Index(xCol)
	if schema[yIdx].Kind != engine.Float {
		return nil, fmt.Errorf("linregr: column %q must be %s", yCol, engine.Float)
	}
	if schema[xIdx].Kind != engine.Vector {
		return nil, fmt.Errorf("linregr: column %q must be %s", xCol, engine.Vector)
	}
	return newAggregate(cfg, bind, yIdx, xIdx), nil
}
