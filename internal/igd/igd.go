// Package igd is the unified incremental-gradient training harness:
// every convex learner in the library (logistic regression's IGD
// solver, SVM, the Table-2 objectives of internal/sgd, low-rank
// factorization) trains through the single epoch loop in this package.
// The design follows "Towards a Unified Architecture for in-RDBMS
// Analytics" (Bismarck): a learner is nothing but a Loss — one
// incremental-gradient step plus an objective over a dense []float64
// model — and the harness supplies everything else:
//
//   - Morsel-parallel epochs on the engine's scan worker pool. Each
//     epoch deals the table's morsels to R model replicas (default: one
//     per segment); each replica chains through its morsels
//     sequentially and the replicas run concurrently via
//     engine.RunTasks. At the epoch boundary the replicas merge by
//     weighted model averaging — Bismarck's merge.
//   - Vectorized gather kernels. Replica chains read rows through
//     typed ColBatch lanes straight off segment storage — Vector
//     columns arrive as zero-copy [][]float64 lanes, scalar feature
//     columns gather into a reusable []float64 scratch — so the inner
//     loop is fused dot/axpy arithmetic with no per-row engine.Row
//     materialization and no `any` boxing.
//   - Seeded per-epoch morsel permutation. With a non-zero Seed the
//     morsel order reshuffles every epoch from a deterministic RNG, so
//     stochastic shuffling survives parallelism: the schedule is a
//     function of (table shape, seed, epoch) only, never of the worker
//     count, and results are bit-identical across GOMAXPROCS settings.
//
// TrainRowLane is the same harness over boxed row-at-a-time access —
// the pre-vectorization lane — kept as the differential-testing oracle
// and benchmark companion: both lanes execute identical floating-point
// operations in identical order, so their models must match bitwise.
package igd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"madlib/internal/engine"
)

// Loss is the plug-in contract: one convex objective term family over a
// dense model vector. Implementations must be safe for concurrent use
// by multiple replicas (stateless value types are), or implement Cloner
// to give each replica a private instance.
type Loss interface {
	// Dim is the model dimension.
	Dim() int
	// Step folds one example (x, y) into w at step size alpha — the
	// incremental-gradient update, in place — and returns the example's
	// objective value at the pre-update weights.
	Step(w, x []float64, y, alpha float64) float64
	// Objective returns the example's loss at w without updating.
	Objective(w, x []float64, y float64) float64
}

// GradLoss is the gradient-form flavor of Loss, for objectives that are
// naturally written as "objective + accumulate gradient" (the sgd
// package's Table-2 models). FromGrad wraps one into a Loss with the
// standard shrink/step update.
type GradLoss interface {
	// Dim is the model dimension.
	Dim() int
	// LossGrad returns fᵢ(w) for example (x, y) and ADDS ∇fᵢ into grad
	// (the caller zeroes it).
	LossGrad(w, x []float64, y float64, grad []float64) float64
}

// Proximal is implemented by losses with a non-smooth regularizer
// handled by a proximal operator after each gradient step (lasso's L1).
// The harness applies it after every Step and re-applies it to the
// merged model at each epoch boundary, restoring the sparsity pattern
// that weighted averaging blurs.
type Proximal interface {
	Prox(w []float64, alpha float64)
}

// Cloner is implemented by stateful losses (per-replica scratch) so the
// harness can give each replica chain a private instance.
type Cloner interface {
	CloneLoss() Loss
}

// ErrNoData is returned when the table holds no rows.
var ErrNoData = errors.New("igd: no training rows")

// Features describes where a training example's inputs live in the
// table. Exactly one of XVector / XCols provides the feature lane.
type Features struct {
	// Y is the label column (Float or Int kind).
	Y int
	// XVector is a Vector column holding each example's feature vector,
	// or -1 when XCols is used instead. Vector lanes are read zero-copy.
	XVector int
	// XCols lists scalar numeric columns (Float or Int) gathered per
	// row into a reusable x scratch — the factorization shape (i, j).
	XCols []int
}

// VectorFeatures describes the (y, x-vector) layout of the regression
// and classification learners.
func VectorFeatures(y, xVector int) Features {
	return Features{Y: y, XVector: xVector}
}

// ColumnFeatures describes a scalar-column layout: y plus one x scratch
// entry per listed column (factorization's (i, j) indices).
func ColumnFeatures(y int, xCols ...int) Features {
	return Features{Y: y, XVector: -1, XCols: xCols}
}

func (f Features) validate(schema engine.Schema) error {
	check := func(col int, what string, kinds ...engine.Kind) error {
		if col < 0 || col >= len(schema) {
			return fmt.Errorf("igd: %s column %d out of range", what, col)
		}
		for _, k := range kinds {
			if schema[col].Kind == k {
				return nil
			}
		}
		return fmt.Errorf("igd: %s column %q is %s, need %v", what, schema[col].Name, schema[col].Kind, kinds)
	}
	if err := check(f.Y, "label", engine.Float, engine.Int); err != nil {
		return err
	}
	if f.XVector >= 0 {
		if len(f.XCols) > 0 {
			return errors.New("igd: Features sets both XVector and XCols")
		}
		return check(f.XVector, "feature", engine.Vector)
	}
	if len(f.XCols) == 0 {
		return errors.New("igd: Features names no feature columns")
	}
	for _, c := range f.XCols {
		if err := check(c, "feature", engine.Float, engine.Int); err != nil {
			return err
		}
	}
	return nil
}

// Options configure Train.
type Options struct {
	// StepSize is the initial learning rate (default 0.1); the
	// effective rate decays as StepSize/√epoch.
	StepSize float64
	// Epochs bounds data passes (default 50).
	Epochs int
	// Tolerance stops early when the relative per-epoch loss change
	// falls below it; zero or negative disables the check.
	Tolerance float64
	// Seed drives the per-epoch morsel permutation. Zero keeps the
	// table's (segment, offset) morsel order every epoch — the legacy
	// schedule — so existing learners stay reproducible.
	Seed int64
	// Replicas is the number of model replicas per epoch (default: the
	// database's segment count, Bismarck's one-model-per-segment). The
	// replica partition is static, so results do not depend on the
	// worker count.
	Replicas int
	// NoAveraging keeps the first replica's chain at merge time instead
	// of averaging (losses still combine) — the ablation mode.
	NoAveraging bool
	// Start optionally warm-starts the model (copied); nil starts at
	// zero.
	Start []float64
}

func (o *Options) defaults() {
	if o.StepSize == 0 {
		o.StepSize = 0.1
	}
	if o.Epochs == 0 {
		o.Epochs = 50
	}
}

// Result reports a training run.
type Result struct {
	// Weights is the trained model.
	Weights []float64
	// LossHistory is the mean per-example loss of each epoch, measured
	// at the pre-update weights as the chains scan.
	LossHistory []float64
	// Epochs is the number of epochs run.
	Epochs int
	// NumRows is the number of examples per epoch.
	NumRows int64
}

// chain is one replica's state: a private model, loss accumulator and
// gather scratch, reused across epochs.
type chain struct {
	feat    Features
	loss    Loss
	prox    Proximal
	hasProx bool

	w       []float64
	lossSum float64
	n       int64

	x    []float64   // per-row scratch for the XCols shape
	conv [][]float64 // per-lane Int→Float conversion scratch; conv[0] is y
}

func newChain(feat Features, loss Loss, dim int) *chain {
	c := &chain{feat: feat, loss: loss, w: make([]float64, dim)}
	if cl, ok := loss.(Cloner); ok {
		c.loss = cl.CloneLoss()
	}
	c.prox, c.hasProx = c.loss.(Proximal)
	c.conv = make([][]float64, 1+len(feat.XCols))
	if feat.XVector < 0 {
		c.x = make([]float64, len(feat.XCols))
	}
	return c
}

func (c *chain) reset(w0 []float64) {
	copy(c.w, w0)
	c.lossSum = 0
	c.n = 0
}

// floatLane returns column col of b as a float64 lane: Float columns
// zero-copy, Int columns converted into the reusable scratch slot.
func (c *chain) floatLane(b engine.ColBatch, col, slot int, kind engine.Kind) []float64 {
	if kind == engine.Float {
		return b.Floats(col)
	}
	ints := b.Ints(col)
	lane := c.conv[slot]
	if cap(lane) < len(ints) {
		lane = make([]float64, engine.BatchSize)
		c.conv[slot] = lane
	}
	lane = lane[:len(ints)]
	for i, v := range ints {
		lane[i] = float64(v)
	}
	return lane
}

// runMorsel folds one morsel into the chain through the vectorized
// gather kernels: typed lanes off segment storage, fused Step updates,
// no row boxing.
func (c *chain) runMorsel(schema engine.Schema, m engine.Morsel, alpha float64) error {
	yKind := schema[c.feat.Y].Kind
	return m.ForEachBatch(func(b engine.ColBatch) error {
		// The loss sum stays in a register for the batch: the same
		// additions in the same order, one store.
		ys, lossSum := c.floatLane(b, c.feat.Y, 0, yKind), c.lossSum
		c.n += int64(len(ys))
		if c.feat.XVector >= 0 {
			xs := b.Vectors(c.feat.XVector)
			loss, w := c.loss, c.w
			if c.hasProx {
				for i, y := range ys {
					lossSum += loss.Step(w, xs[i], y, alpha)
					c.prox.Prox(w, alpha)
				}
			} else {
				for i, y := range ys {
					lossSum += loss.Step(w, xs[i], y, alpha)
				}
			}
			c.lossSum = lossSum
			return nil
		}
		lanes := c.conv[1 : 1+len(c.feat.XCols)]
		for j, col := range c.feat.XCols {
			lanes[j] = c.floatLane(b, col, 1+j, schema[col].Kind)
		}
		for i, y := range ys {
			for j := range lanes {
				c.x[j] = lanes[j][i]
			}
			lossSum += c.loss.Step(c.w, c.x, y, alpha)
			if c.hasProx {
				c.prox.Prox(c.w, alpha)
			}
		}
		c.lossSum = lossSum
		return nil
	})
}

// boxedExample is the row lane's per-row example, boxed through `any`
// exactly as the pre-harness learners boxed LabeledExample /
// RatingExample.
type boxedExample struct {
	x []float64
	y float64
}

// runMorselRows is runMorsel over the pre-harness access path: every
// row drives a FuncAggregate-style transition through the Aggregate
// interface — the state arrives as `any` and is type-asserted back, the
// extractor closure boxes the example through `any`, and the example is
// asserted out — the exact per-row machinery db.Run executed before the
// harness existed. The arithmetic (Loss.Step on the same operands in
// the same order) is identical to the vectorized lane, so models match
// bitwise; only the access path differs.
func (c *chain) runMorselRows(schema engine.Schema, m engine.Morsel, alpha float64) error {
	extract := c.rowExtractor(schema)
	var agg engine.Aggregate = engine.FuncAggregate{
		TransitionFn: func(s any, r engine.Row) any {
			st := s.(*chain)
			bx := extract(r).(boxedExample)
			st.lossSum += st.loss.Step(st.w, bx.x, bx.y, alpha)
			if st.hasProx {
				st.prox.Prox(st.w, alpha)
			}
			st.n++
			return st
		},
	}
	var s any = c
	for i, n := 0, m.Len(); i < n; i++ {
		s = agg.Transition(s, m.Row(i))
	}
	return nil
}

func (c *chain) rowExtractor(schema engine.Schema) func(engine.Row) any {
	yFloat := schema[c.feat.Y].Kind == engine.Float
	yOf := func(r engine.Row) float64 {
		if yFloat {
			return r.Float(c.feat.Y)
		}
		return float64(r.Int(c.feat.Y))
	}
	if c.feat.XVector >= 0 {
		xv := c.feat.XVector
		return func(r engine.Row) any {
			return boxedExample{x: r.Vector(xv), y: yOf(r)}
		}
	}
	cols := c.feat.XCols
	floats := make([]bool, len(cols))
	for j, col := range cols {
		floats[j] = schema[col].Kind == engine.Float
	}
	return func(r engine.Row) any {
		for j, col := range cols {
			if floats[j] {
				c.x[j] = r.Float(col)
			} else {
				c.x[j] = float64(r.Int(col))
			}
		}
		return boxedExample{x: c.x, y: yOf(r)}
	}
}

// epochOrder returns the morsel visit order for one epoch: the identity
// order when seed is zero, otherwise a deterministic permutation drawn
// from (seed, epoch) — independent of worker count and GOMAXPROCS.
func epochOrder(n int, seed int64, epoch int) []int {
	if seed == 0 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	rng := rand.New(rand.NewSource(seed + int64(epoch)*1_000_003))
	return rng.Perm(n)
}

// Train runs morsel-parallel incremental-gradient descent over the
// table through the vectorized gather lane.
func Train(db *engine.DB, t *engine.Table, feat Features, loss Loss, opts Options) (*Result, error) {
	return train(db, t, feat, loss, opts, false)
}

// TrainRowLane is Train over the boxed row-at-a-time access path. It
// exists as the differential-testing oracle and benchmark companion for
// the vectorized lane; new callers should use Train.
func TrainRowLane(db *engine.DB, t *engine.Table, feat Features, loss Loss, opts Options) (*Result, error) {
	return train(db, t, feat, loss, opts, true)
}

func train(db *engine.DB, t *engine.Table, feat Features, loss Loss, opts Options, rowLane bool) (*Result, error) {
	opts.defaults()
	dim := loss.Dim()
	if dim <= 0 {
		return nil, fmt.Errorf("igd: model dimension %d", dim)
	}
	schema := t.Schema()
	if err := feat.validate(schema); err != nil {
		return nil, err
	}
	res := &Result{Weights: make([]float64, dim)}
	if opts.Start != nil {
		if len(opts.Start) != dim {
			return nil, fmt.Errorf("igd: Start has %d weights, model needs %d", len(opts.Start), dim)
		}
		copy(res.Weights, opts.Start)
	}
	ms := t.Morsels()
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = db.SegmentCount()
	}
	if replicas > len(ms) {
		replicas = len(ms)
	}
	if replicas < 1 {
		replicas = 1
	}
	chains := make([]*chain, replicas)
	for r := range chains {
		chains[r] = newChain(feat, loss, dim)
	}
	_, hasProx := chains[0].loss.(Proximal)
	reg := db.Metrics()
	trainEpochs := reg.Counter("train_epochs")
	trainRows := reg.Counter("train_rows")
	trainLoss := reg.Value("train_loss_micro")

	for epoch := 1; epoch <= opts.Epochs; epoch++ {
		alpha := opts.StepSize / math.Sqrt(float64(epoch))
		order := epochOrder(len(ms), opts.Seed, epoch)
		w0 := append([]float64(nil), res.Weights...)
		for _, c := range chains {
			c.reset(w0)
		}
		err := db.RunTasks(t, replicas, func(r int) error {
			c := chains[r]
			for i := r; i < len(order); i += replicas {
				m := ms[order[i]]
				var err error
				if rowLane {
					err = c.runMorselRows(schema, m, alpha)
				} else {
					err = c.runMorsel(schema, m, alpha)
				}
				if err != nil {
					return err
				}
				db.AddRowsScanned(int64(m.Len()))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Bismarck's merge: weighted model averaging by rows seen,
		// folded left-to-right in replica order (replica r holds morsels
		// r, r+R, ... of the epoch's order, so the merge tree is
		// deterministic). Empty replicas contribute nothing.
		var merged []float64
		var n int64
		lossSum := 0.0
		for _, c := range chains {
			lossSum += c.lossSum
			if c.n == 0 {
				continue
			}
			if merged == nil {
				merged = c.w
				n = c.n
				continue
			}
			if opts.NoAveraging {
				n += c.n
				continue
			}
			total := n + c.n
			wa := float64(n) / float64(total)
			wb := float64(c.n) / float64(total)
			for i := range merged {
				merged[i] = wa*merged[i] + wb*c.w[i]
			}
			n = total
		}
		if n == 0 {
			return nil, ErrNoData
		}
		if hasProx {
			// Averaging blends exact zeros into small residuals;
			// re-applying the proximal operator restores the sparsity
			// pattern at each epoch boundary.
			chains[0].prox.Prox(merged, alpha)
		}
		copy(res.Weights, merged)
		res.NumRows = n
		res.Epochs = epoch
		meanLoss := lossSum / float64(n)
		res.LossHistory = append(res.LossHistory, meanLoss)
		trainEpochs.Inc()
		trainRows.Add(n)
		trainLoss.Observe(int64(meanLoss * 1e6))
		if opts.Tolerance > 0 && epoch >= 2 {
			prev := res.LossHistory[epoch-2]
			if math.Abs(prev-meanLoss) < opts.Tolerance*(math.Abs(prev)+1e-12) {
				break
			}
		}
	}
	return res, nil
}

// Evaluate returns the mean per-example objective of weights w over the
// table without updating them, through the same vectorized gather lane
// as Train (one batched engine query).
func Evaluate(db *engine.DB, t *engine.Table, feat Features, loss Loss, w []float64) (float64, error) {
	schema := t.Schema()
	if err := feat.validate(schema); err != nil {
		return 0, err
	}
	type evalState struct {
		c    *chain
		sum  float64
		n    int64
		wref []float64
	}
	v, err := db.RunBatched(t,
		func(int) any {
			return &evalState{c: newChain(feat, loss, len(w)), wref: w}
		},
		func(state any, b engine.ColBatch) error {
			st := state.(*evalState)
			c := st.c
			ys := c.floatLane(b, c.feat.Y, 0, schema[c.feat.Y].Kind)
			if c.feat.XVector >= 0 {
				xs := b.Vectors(c.feat.XVector)
				for i, y := range ys {
					st.sum += c.loss.Objective(st.wref, xs[i], y)
				}
			} else {
				lanes := c.conv[1 : 1+len(c.feat.XCols)]
				for j, col := range c.feat.XCols {
					lanes[j] = c.floatLane(b, col, 1+j, schema[col].Kind)
				}
				for i, y := range ys {
					for j := range lanes {
						c.x[j] = lanes[j][i]
					}
					st.sum += c.loss.Objective(st.wref, c.x, y)
				}
			}
			st.n += int64(len(ys))
			return nil
		},
		func(a, b any) any {
			sa, sb := a.(*evalState), b.(*evalState)
			sa.sum += sb.sum
			sa.n += sb.n
			return sa
		},
	)
	if err != nil {
		return 0, err
	}
	st := v.(*evalState)
	if st.n == 0 {
		return 0, ErrNoData
	}
	return st.sum / float64(st.n), nil
}
