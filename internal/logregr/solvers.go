package logregr

import (
	"errors"
	"math"

	"madlib/internal/array"
	"madlib/internal/core"
	"madlib/internal/engine"
	"madlib/internal/igd"
)

// gradState accumulates the log-likelihood gradient Σ x(y-μ) at fixed
// coefficients — the shared building block of the CG solver.
type gradState struct {
	k       int
	grad    []float64
	loglik  float64
	numRows int64
}

func gradAggregate(bind *core.Binding, coef []float64) engine.Aggregate {
	k := len(coef)
	return engine.FuncAggregate{
		InitFn: func() any { return &gradState{k: k, grad: make([]float64, k)} },
		TransitionFn: func(s any, row engine.Row) any {
			st := s.(*gradState)
			args := bind.Bridge(row)
			y := args.Float(0)
			x := args.Vector(1)
			z := array.Dot(coef, x)
			if y >= 0.5 {
				st.loglik += -math.Log1p(math.Exp(-z))
			} else {
				st.loglik += -z - math.Log1p(math.Exp(-z))
			}
			array.Axpy(y-sigma(z), x, st.grad)
			st.numRows++
			return st
		},
		MergeFn: func(a, b any) any {
			sa, sb := a.(*gradState), b.(*gradState)
			sa.loglik += sb.loglik
			sa.numRows += sb.numRows
			array.AddTo(sa.grad, sb.grad)
			return sa
		},
		FinalFn: func(s any) (any, error) { return s, nil },
	}
}

// cgDriver implements nonlinear conjugate gradient (Polak-Ribière with
// restart) where every gradient and line-search evaluation is an aggregate
// query — the data never leaves the engine.
type cgDriver struct {
	db   *engine.DB
	t    *engine.Table
	bind *core.Binding
	k    int

	prevGrad []float64
	dir      []float64
}

func (c *cgDriver) evalGrad(coef []float64) (*gradState, error) {
	v, err := c.db.Run(c.t, gradAggregate(c.bind, coef))
	if err != nil {
		return nil, err
	}
	st := v.(*gradState)
	if st.numRows == 0 {
		return nil, ErrNoData
	}
	return st, nil
}

func (c *cgDriver) step(prev []float64) ([]float64, error) {
	st, err := c.evalGrad(prev)
	if err != nil {
		return nil, err
	}
	grad := st.grad
	if c.dir == nil {
		c.dir = array.Clone(grad)
	} else {
		// Polak-Ribière: β = gᵀ(g - g_prev) / g_prevᵀg_prev, clamped at 0
		// (automatic restart when search directions degrade).
		num := 0.0
		den := 0.0
		for i := range grad {
			num += grad[i] * (grad[i] - c.prevGrad[i])
			den += c.prevGrad[i] * c.prevGrad[i]
		}
		beta := 0.0
		if den > 0 {
			beta = num / den
		}
		if beta < 0 {
			beta = 0
		}
		for i := range c.dir {
			c.dir[i] = grad[i] + beta*c.dir[i]
		}
	}
	c.prevGrad = array.Clone(grad)

	// Backtracking line search on the log-likelihood (each probe is one
	// aggregate query, as it would be in SQL).
	alpha := 1.0
	base := st.loglik
	gDotD := array.Dot(grad, c.dir)
	if gDotD <= 0 {
		// Direction is not an ascent direction; fall back to the gradient.
		copy(c.dir, grad)
		gDotD = array.Dot(grad, grad)
	}
	for probe := 0; probe < 20; probe++ {
		cand := array.Clone(prev)
		array.Axpy(alpha, c.dir, cand)
		stc, err := c.evalGrad(cand)
		if err != nil {
			return nil, err
		}
		// Armijo condition for maximization.
		if stc.loglik >= base+1e-4*alpha*gDotD {
			return cand, nil
		}
		alpha /= 2
	}
	// Line search failed to improve: report the (tiny) last candidate so
	// the driver's convergence test can fire.
	cand := array.Clone(prev)
	array.Axpy(alpha, c.dir, cand)
	return cand, nil
}

// igdDriver implements incremental gradient descent on the unified igd
// harness: each pass is one morsel-parallel epoch whose replica chains
// update local models row by row and merge by weighted model averaging
// (Zinkevich-style, the paper's reference [47]).
type igdDriver struct {
	db     *engine.DB
	t      *engine.Table
	yi, xi int
	k      int
	step0  float64
	pass   int
}

// negLogLik is the logistic log-likelihood as an igd plug-in: Step
// applies the IGD update α(y−σ(z))x and returns the example's NEGATIVE
// log-likelihood at the pre-update model (the harness minimizes).
type negLogLik struct{ k int }

// Dim implements igd.Loss.
func (l negLogLik) Dim() int { return l.k }

// Step implements igd.Loss. It computes exp(-z) once for both the
// log-likelihood (rowLogLik) and the sigmoid (sigma), with the same
// operations as each.
func (l negLogLik) Step(w, x []float64, y, alpha float64) float64 {
	z := array.Dot(w, x)
	e := math.Exp(-z)
	lg := math.Log1p(e)
	ll := -z - lg
	if y >= 0.5 {
		ll = -lg
	}
	array.Axpy(alpha*(y-1/(1+e)), x, w)
	return -ll
}

// Objective implements igd.Loss.
func (l negLogLik) Objective(w, x []float64, y float64) float64 {
	return -rowLogLik(array.Dot(w, x), y)
}

// rowLogLik is one example's log-likelihood in the overflow-safe branch.
func rowLogLik(z, y float64) float64 {
	if y >= 0.5 {
		return -math.Log1p(math.Exp(-z))
	}
	return -z - math.Log1p(math.Exp(-z))
}

// step runs one IGD pass as a single harness epoch. The returned state is
// the averaged model with the pass log-likelihood appended as a final
// element: SGD parameter vectors jitter around the optimum at the
// step-size scale, so the driver's convergence test watches the
// log-likelihood (which stabilizes quadratically) instead of the
// parameters.
func (g *igdDriver) step(prev []float64) ([]float64, error) {
	g.pass++
	// Decaying step size α/√pass keeps early passes fast and late passes
	// stable. The harness divides by √epoch; with Epochs=1 the step size
	// passes through unchanged.
	res, err := igd.Train(g.db, g.t, igd.VectorFeatures(g.yi, g.xi), negLogLik{k: g.k}, igd.Options{
		StepSize: g.step0 / math.Sqrt(float64(g.pass)),
		Epochs:   1,
		Start:    prev[:g.k], // strip the appended log-likelihood slot
	})
	if err != nil {
		if errors.Is(err, igd.ErrNoData) {
			return nil, ErrNoData
		}
		return nil, err
	}
	loglik := -res.LossHistory[0] * float64(res.NumRows)
	return append(res.Weights, loglik), nil
}
