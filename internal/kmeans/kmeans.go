// Package kmeans implements Lloyd's k-means clustering as the paper's §4.3
// large-state iterative example. Two macro-programming patterns are
// provided, reproducing the design discussion there:
//
//   - UDAOnly — assignments stay implicit; every iteration is a single
//     aggregate pass, but checking the convergence criterion ("no or only
//     few points got reassigned") costs two closest-centroid computations
//     per point and iteration, exactly as the paper notes.
//   - AssignmentTable — each point's current centroid id is stored in an
//     Int column of the points table (UPDATE points SET centroid_id =
//     closest_column(centroids, coords)); an iteration is then two passes
//     (update assignments, recompute barycenters) but only one
//     closest-centroid computation per point.
//
// Seeding supports uniform random sampling and k-means++ [5], both run as
// aggregate queries so the data never leaves the engine.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"madlib/internal/array"
	"madlib/internal/core"
	"madlib/internal/engine"
)

func init() {
	core.RegisterMethod(core.MethodInfo{Name: "kmeans", Title: "k-Means Clustering", Category: core.Unsupervised})
}

// Seeding selects the centroid initialization strategy.
type Seeding int

const (
	// PlusPlus is k-means++ D² weighting (default).
	PlusPlus Seeding = iota
	// Random samples k points uniformly.
	Random
)

// Pattern selects the §4.3 macro-programming pattern.
type Pattern int

const (
	// UDAOnly keeps assignments implicit (one pass, two closest-centroid
	// computations per point).
	UDAOnly Pattern = iota
	// AssignmentTable materializes assignments in the points table (two
	// passes, one closest-centroid computation per point). Requires the
	// table to have an Int assignment column.
	AssignmentTable
)

// ErrNoData is returned when the table has fewer points than clusters.
var ErrNoData = errors.New("kmeans: not enough points")

// Options configure Run.
type Options struct {
	// K is the number of clusters (required).
	K int
	// Seeding picks the initialization (default PlusPlus).
	Seeding Seeding
	// Pattern picks the macro-pattern (default UDAOnly).
	Pattern Pattern
	// AssignmentColumn names the Int column used by AssignmentTable
	// (default "centroid_id").
	AssignmentColumn string
	// MaxIterations bounds the Lloyd loop (default 50).
	MaxIterations int
	// ReassignFraction stops iteration once fewer than this fraction of
	// points changed centroid (default 0.001).
	ReassignFraction float64
	// Seed drives the seeding RNG.
	Seed int64
}

func (o *Options) defaults() error {
	if o.K < 1 {
		return errors.New("kmeans: K must be at least 1")
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 50
	}
	if o.ReassignFraction == 0 {
		o.ReassignFraction = 0.001
	}
	if o.AssignmentColumn == "" {
		o.AssignmentColumn = "centroid_id"
	}
	return nil
}

// Result reports the clustering.
type Result struct {
	// Centroids are the final cluster centers.
	Centroids [][]float64
	// Sizes are the number of points assigned to each centroid.
	Sizes []int64
	// Objective is the final sum of squared point-to-centroid distances.
	Objective float64
	// ObjectiveHistory records the objective after each iteration.
	ObjectiveHistory []float64
	// Iterations is the number of Lloyd iterations run.
	Iterations int
}

// Closest returns the index of the centroid nearest to x and the squared
// distance — the library's closest_column UDF.
func Closest(centroids [][]float64, x []float64) (int, float64) {
	best, bi := math.Inf(1), -1
	for j, c := range centroids {
		if d := array.SquaredDistance(c, x); d < best {
			best, bi = d, j
		}
	}
	return bi, best
}

// Run clusters the points in coordsCol (a Vector column).
func Run(db *engine.DB, table *engine.Table, coordsCol string, opts Options) (*Result, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	schema := table.Schema()
	ci := schema.Index(coordsCol)
	if ci < 0 {
		return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, coordsCol)
	}
	if schema[ci].Kind != engine.Vector {
		return nil, fmt.Errorf("kmeans: column %q must be %s", coordsCol, engine.Vector)
	}
	if table.Count() < int64(opts.K) {
		return nil, fmt.Errorf("%w: %d points for K=%d", ErrNoData, table.Count(), opts.K)
	}
	centroids, err := seed(db, table, ci, opts)
	if err != nil {
		return nil, err
	}
	switch opts.Pattern {
	case UDAOnly:
		return lloydUDAOnly(db, table, ci, centroids, opts)
	case AssignmentTable:
		return lloydAssignmentTable(db, table, ci, centroids, opts)
	}
	return nil, fmt.Errorf("kmeans: unknown pattern %d", opts.Pattern)
}

// seed produces the initial centroids.
func seed(db *engine.DB, t *engine.Table, ci int, opts Options) ([][]float64, error) {
	switch opts.Seeding {
	case Random:
		return seedRandom(db, t, ci, opts.K, opts.Seed)
	case PlusPlus:
		return seedPlusPlus(db, t, ci, opts.K, opts.Seed)
	}
	return nil, fmt.Errorf("kmeans: unknown seeding %d", opts.Seeding)
}

// The seeding passes give every morsel its own RNG, seeded from the
// user's seed and the morsel's position in (segment, offset) order — a
// function of the table's shape only, never of which worker starts first
// — so a fixed seed repeats bit for bit at any GOMAXPROCS. The seeds are
// the ones a sequential scan used to hand out in order.

// seedRandom reservoir-samples k points in one aggregate pass.
func seedRandom(db *engine.DB, t *engine.Table, ci, k int, seedVal int64) ([][]float64, error) {
	type reservoir struct {
		rng  *rand.Rand
		pts  [][]float64
		seen int64
	}
	v, err := db.RunBatched(t,
		func(morsel int) any {
			return &reservoir{rng: rand.New(rand.NewSource(seedVal + 1 + int64(morsel)))}
		},
		func(s any, b engine.ColBatch) error {
			st := s.(*reservoir)
			for _, x := range b.Vectors(ci) {
				st.seen++
				if len(st.pts) < k {
					st.pts = append(st.pts, array.Clone(x))
				} else if j := st.rng.Int63n(st.seen); j < int64(k) {
					st.pts[j] = array.Clone(x)
				}
			}
			return nil
		},
		func(a, b any) any {
			sa, sb := a.(*reservoir), b.(*reservoir)
			// Merge two reservoirs: weighted subsampling keeps uniformity
			// approximately; exactness is unnecessary for seeding.
			total := sa.seen + sb.seen
			for _, p := range sb.pts {
				if len(sa.pts) < k {
					sa.pts = append(sa.pts, p)
				} else if total > 0 && sa.rng.Int63n(total) < sb.seen {
					sa.pts[sa.rng.Intn(len(sa.pts))] = p
				}
			}
			sa.seen = total
			return sa
		})
	if err != nil {
		return nil, err
	}
	pts := v.(*reservoir).pts
	if len(pts) < k {
		return nil, ErrNoData
	}
	return pts, nil
}

// seedPlusPlus implements k-means++: each new centroid is sampled with
// probability proportional to its squared distance from the chosen set,
// via one weighted-reservoir aggregate pass per centroid.
func seedPlusPlus(db *engine.DB, t *engine.Table, ci, k int, seedVal int64) ([][]float64, error) {
	first, err := seedRandom(db, t, ci, 1, seedVal)
	if err != nil {
		return nil, err
	}
	centroids := first
	type wr struct {
		rng  *rand.Rand
		best []float64
		key  float64 // A-Res key: u^(1/w); max wins
	}
	morsels := int64(db.ScanMorsels(t))
	for pass := int64(0); len(centroids) < k; pass++ {
		chosen := centroids
		passSeed := seedVal + 1001 + pass*morsels
		v, err := db.RunBatched(t,
			func(morsel int) any {
				return &wr{rng: rand.New(rand.NewSource(passSeed + int64(morsel))), key: -1}
			},
			func(s any, b engine.ColBatch) error {
				st := s.(*wr)
				for _, x := range b.Vectors(ci) {
					_, d2 := Closest(chosen, x)
					if d2 <= 0 {
						continue
					}
					key := math.Pow(st.rng.Float64(), 1/d2)
					if key > st.key {
						st.key = key
						st.best = array.Clone(x)
					}
				}
				return nil
			},
			func(a, b any) any {
				sa, sb := a.(*wr), b.(*wr)
				if sb.key > sa.key {
					return sb
				}
				return sa
			})
		if err != nil {
			return nil, err
		}
		best := v.(*wr).best
		if best == nil {
			// All remaining points coincide with existing centroids;
			// duplicate one arbitrarily so K centroids exist.
			best = array.Clone(centroids[0])
		}
		centroids = append(centroids, best)
	}
	return centroids, nil
}

// lloydState is the intra-iteration aggregation state: per-centroid sums
// and counts, plus the reassignment tally and objective.
type lloydState struct {
	sums       [][]float64
	counts     []int64
	reassigned int64
	total      int64
	objective  float64
}

func newLloydState(k, dim int) *lloydState {
	s := &lloydState{sums: make([][]float64, k), counts: make([]int64, k)}
	for i := range s.sums {
		s.sums[i] = make([]float64, dim)
	}
	return s
}

func (s *lloydState) merge(o *lloydState) {
	for i := range s.sums {
		array.AddTo(s.sums[i], o.sums[i])
		s.counts[i] += o.counts[i]
	}
	s.reassigned += o.reassigned
	s.total += o.total
	s.objective += o.objective
}

// lloydUDAOnly runs Lloyd iterations where each iteration is one aggregate
// pass; the transition computes closest centroids under both the current
// and previous inter-iteration states to count reassignments (the double
// computation §4.3 describes).
func lloydUDAOnly(db *engine.DB, t *engine.Table, ci int, centroids [][]float64, opts Options) (*Result, error) {
	dim := len(centroids[0])
	k := opts.K
	res := &Result{}
	var prev [][]float64
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		cur, prevSnapshot := centroids, prev
		v, err := db.Run(t, engine.FuncAggregate{
			InitFn: func() any { return newLloydState(k, dim) },
			TransitionFn: func(s any, row engine.Row) any {
				st := s.(*lloydState)
				x := row.Vector(ci)
				j, d2 := Closest(cur, x)
				array.AddTo(st.sums[j], x)
				st.counts[j]++
				st.total++
				st.objective += d2
				if prevSnapshot != nil {
					if jPrev, _ := Closest(prevSnapshot, x); jPrev != j {
						st.reassigned++
					}
				} else {
					st.reassigned++
				}
				return st
			},
			MergeFn: func(a, b any) any {
				sa := a.(*lloydState)
				sa.merge(b.(*lloydState))
				return sa
			},
			FinalFn: func(s any) (any, error) { return s, nil },
		})
		if err != nil {
			return nil, err
		}
		st := v.(*lloydState)
		prev = centroids
		centroids = reposition(st, centroids)
		res.Iterations = iter
		res.ObjectiveHistory = append(res.ObjectiveHistory, st.objective)
		res.Objective = st.objective
		res.Sizes = st.counts
		if float64(st.reassigned) <= opts.ReassignFraction*float64(st.total) {
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// lloydAssignmentTable runs Lloyd iterations as two passes: UPDATE the
// assignment column, then recompute barycenters grouped by it.
func lloydAssignmentTable(db *engine.DB, t *engine.Table, ci int, centroids [][]float64, opts Options) (*Result, error) {
	schema := t.Schema()
	ai := schema.Index(opts.AssignmentColumn)
	if ai < 0 {
		return nil, fmt.Errorf("kmeans: AssignmentTable pattern needs an Int column %q", opts.AssignmentColumn)
	}
	if schema[ai].Kind != engine.Int {
		return nil, fmt.Errorf("kmeans: column %q must be %s", opts.AssignmentColumn, engine.Int)
	}
	dim := len(centroids[0])
	k := opts.K
	res := &Result{}
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		// Pass 1: UPDATE points SET centroid_id = closest(centroids, coords),
		// counting reassignments as we go (one closest computation/point).
		cur := centroids
		var reassigned, total atomic.Int64
		err := db.UpdateInt(t, opts.AssignmentColumn, func(row engine.Row) int64 {
			x := row.Vector(ci)
			j, _ := Closest(cur, x)
			if row.Int(ai) != int64(j) {
				reassigned.Add(1)
			}
			total.Add(1)
			return int64(j)
		})
		if err != nil {
			return nil, err
		}
		// Pass 2: recompute barycenters grouped by the stored assignment.
		v, err := db.Run(t, engine.FuncAggregate{
			InitFn: func() any { return newLloydState(k, dim) },
			TransitionFn: func(s any, row engine.Row) any {
				st := s.(*lloydState)
				x := row.Vector(ci)
				j := int(row.Int(ai))
				array.AddTo(st.sums[j], x)
				st.counts[j]++
				st.total++
				st.objective += array.SquaredDistance(cur[j], x)
				return st
			},
			MergeFn: func(a, b any) any {
				sa := a.(*lloydState)
				sa.merge(b.(*lloydState))
				return sa
			},
			FinalFn: func(s any) (any, error) { return s, nil },
		})
		if err != nil {
			return nil, err
		}
		st := v.(*lloydState)
		centroids = reposition(st, centroids)
		res.Iterations = iter
		res.ObjectiveHistory = append(res.ObjectiveHistory, st.objective)
		res.Objective = st.objective
		res.Sizes = st.counts
		if float64(reassigned.Load()) <= opts.ReassignFraction*float64(total.Load()) {
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// reposition computes new centroids as barycenters; empty clusters keep
// their previous position.
func reposition(st *lloydState, prev [][]float64) [][]float64 {
	out := make([][]float64, len(prev))
	for j := range prev {
		if st.counts[j] == 0 {
			out[j] = array.Clone(prev[j])
			continue
		}
		c := array.Clone(st.sums[j])
		array.Scale(1/float64(st.counts[j]), c)
		out[j] = c
	}
	return out
}
