package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"madlib/internal/datagen"
	"madlib/internal/engine"
	"madlib/internal/kmeans"
	"madlib/internal/linregr"
	"madlib/internal/logregr"
	"madlib/internal/model"
	"madlib/internal/pgwire"
)

// The trainer statements of train_refresh, shared with the probes so that
// the direct calls time the same work.
const (
	linregrSQL = "SELECT (madlib.linregr('m', y, x)).* FROM reg"
	igdSQL     = "SELECT (madlib.logregr('c', y, x, 'igd', 100, 0.001)).* FROM cls"
	kmeansSQL  = "SELECT (madlib.kmeans(coords, 5, 7)).* FROM pts"
)

var igdOptions = logregr.Options{Solver: logregr.IGD, MaxIterations: 100, Tolerance: 0.001}

// trainData is the paper's own hot path (§4.1-4.2, §4.4): a 40-variable
// linear regression, a 20-variable logistic regression by incremental
// gradient descent, and k-means, each with the generator's ground truth.
type trainData struct {
	reg *datagen.Regression
	cls *datagen.Classification
	pts *datagen.Clusters
}

func newTrainData(seed int64, scale int) *trainData {
	return &trainData{
		reg: datagen.NewRegression(seed, 100_000/scale, 40, 0.1),
		cls: datagen.NewLogistic(seed+1, 50_000/scale, 20),
		pts: datagen.NewClusters(seed+2, 20_000/scale, 5, 8, 0.5),
	}
}

func (d *trainData) load(db *engine.DB) error {
	if _, err := d.reg.LoadRegression(db, "reg"); err != nil {
		return err
	}
	if _, err := d.cls.Load(db, "cls"); err != nil {
		return err
	}
	_, err := d.pts.Load(db, "pts")
	return err
}

func directLinregr(db *engine.DB) error {
	t, err := db.Table("reg")
	if err == nil {
		_, err = linregr.Run(db, t, "y", "x")
	}
	return err
}

func directIGD(db *engine.DB) error {
	t, err := db.Table("cls")
	if err == nil {
		_, err = logregr.Run(db, t, "y", "x", igdOptions)
	}
	return err
}

func directKMeans(db *engine.DB) error {
	t, err := db.Table("pts")
	if err == nil {
		_, err = kmeans.Run(db, t, "coords", kmeans.Options{K: 5, Seed: 7})
	}
	return err
}

// modelCheck verifies a persist-form trainer: the acknowledgment row, then
// the coefficients the statement left in the catalog. They must satisfy
// close (a tolerance against the generator's ground truth) and be
// bit-identical every time the statement repeats on unchanged data.
func (w *workload) modelCheck(name, kind string, dims int, rows int64, close func(coef []float64) error) check {
	var first []float64
	return func(res *pgwire.ClientResult) error {
		if rowCount(res) != 1 || len(res.Rows[0]) != 5 {
			return fmt.Errorf("trainer %s: want one row of 5 cells", name)
		}
		r := res.Rows[0]
		if *r[0] != name || *r[1] != kind || *r[2] != itoa(int64(dims)) || *r[3] != itoa(rows) {
			return fmt.Errorf("trainer %s acknowledged %s/%s/%s/%s", name, *r[0], *r[1], *r[2], *r[3])
		}
		m, _, _, err := model.Load(w.db, name)
		if err != nil {
			return err
		}
		if err := close(m.Coef); err != nil {
			return fmt.Errorf("model %s: %w", name, err)
		}
		if first == nil {
			first = m.Coef
		} else if !sameBits(first, m.Coef) {
			return fmt.Errorf("model %s: coefficients changed between identical retrains", name)
		}
		return nil
	}
}

func within(truth []float64, tol float64) func([]float64) error {
	return func(coef []float64) error {
		if len(coef) != len(truth) {
			return fmt.Errorf("%d coefficients, want %d", len(coef), len(truth))
		}
		for i := range coef {
			if math.Abs(coef[i]-truth[i]) > tol {
				return fmt.Errorf("coef[%d] = %v, truth %v", i, coef[i], truth[i])
			}
		}
		return nil
	}
}

// aligned accepts a model whose direction matches the truth: a few IGD
// epochs find the separating direction long before the magnitudes.
func aligned(truth []float64, minCos float64) func([]float64) error {
	return func(coef []float64) error {
		if len(coef) != len(truth) {
			return fmt.Errorf("%d coefficients, want %d", len(coef), len(truth))
		}
		var dot, a, b float64
		for i := range coef {
			dot += coef[i] * truth[i]
			a += coef[i] * coef[i]
			b += truth[i] * truth[i]
		}
		if cos := dot / math.Sqrt(a*b); !(cos >= minCos) {
			return fmt.Errorf("cosine to the true coefficients %.3f, want at least %.2f", cos, minCos)
		}
		return nil
	}
}

// kmeansCheck expects one centroid on each true center, with the points
// of all clusters accounted for. It does not ask for identical bits:
// kmeans hands its per-morsel seeding RNGs out in the order the parallel
// workers start, so a fixed seed does not repeat from run to run.
func kmeansCheck(pts *datagen.Clusters) check {
	return func(res *pgwire.ClientResult) error {
		if rowCount(res) != len(pts.Centers) {
			return fmt.Errorf("kmeans: %d centroids, want %d", rowCount(res), len(pts.Centers))
		}
		var total int64
		taken := make([]bool, len(pts.Centers))
		for _, row := range res.Rows {
			var c []float64
			for _, f := range strings.Split(strings.Trim(*row[1], "{}"), ",") {
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return fmt.Errorf("kmeans centroid %q: %v", *row[1], err)
				}
				c = append(c, x)
			}
			size, _ := strconv.ParseInt(*row[2], 10, 64)
			total += size
			j, d2 := kmeans.Closest(pts.Centers, c)
			if d2 > 0.25 || taken[j] {
				return fmt.Errorf("kmeans centroid %v is not alone on a true center", c)
			}
			taken[j] = true
		}
		if total != int64(len(pts.Points)) {
			return fmt.Errorf("kmeans sizes add to %d, want %d", total, len(pts.Points))
		}
		return nil
	}
}

// trainRefresh retrains models over one connection. The boxed
// TransitionFn fold under linregr, the igd harness and the model catalog
// do most of the work. The headline population is the linregr statement,
// the cell of the paper's Figure 4.
func trainRefresh(seed int64, scale int) *workload {
	d := newTrainData(seed, scale)
	w := &workload{name: "train_refresh", conns: 1}

	// feat carries a 4-feature model that is retrained and then scored
	// over the whole table, so catalog invalidation, replanning and the
	// fused predict kernel are on the clock. y is exact, so the fitted
	// score of a row is (2A + 4B - 2C + D)/2000 up to rounding, and
	// thresholds sit between two possible scores.
	n := 50_000 / scale
	rng := rand.New(rand.NewSource(seed + 3))
	F := make([][4]int, n)
	var scoreGE [9002]int // rows with 2A+4B-2C+D+2000 >= s
	for i := range F {
		F[i] = [4]int{rng.Intn(1000), rng.Intn(1000), rng.Intn(1000), rng.Intn(1000)}
		scoreGE[2*F[i][0]+4*F[i][1]-2*F[i][2]+F[i][3]+2000]++
	}
	for s := 9000; s >= 0; s-- {
		scoreGE[s] += scoreGE[s+1]
	}
	m4 := []float64{1, 2, -1, 0.5}

	w.load = func(db *engine.DB) error {
		if err := d.load(db); err != nil {
			return err
		}
		t, err := db.CreateTable("feat", engine.Schema{
			{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
			{Name: "a", Kind: engine.Float}, {Name: "b", Kind: engine.Float},
			{Name: "c", Kind: engine.Float}, {Name: "d", Kind: engine.Float},
		})
		if err != nil {
			return err
		}
		for _, f := range F {
			x := []float64{float64(f[0]) / 1000, float64(f[1]) / 1000, float64(f[2]) / 1000, float64(f[3]) / 1000}
			y := m4[0]*x[0] + m4[1]*x[1] + m4[2]*x[2] + m4[3]*x[3]
			if err := t.Insert(y, x, x[0], x[1], x[2], x[3]); err != nil {
				return err
			}
		}
		return nil
	}

	linregrWant := w.modelCheck("m", "linregr", 40, int64(len(d.reg.Y)), within(d.reg.Coef, 0.05))
	igdWant := w.modelCheck("c", "logregr", 20, int64(len(d.cls.Y)), aligned(d.cls.Coef, 0.9))
	m4Want := w.modelCheck("m4", "linregr", 4, int64(n), within(m4, 1e-6))
	kmeansWant := kmeansCheck(d.pts)
	w.kinds = []kind{
		{
			name: "linregr", head: true, perRound: per(10, scale), nArgs: 1,
			stmts: func(int64, int) []stmt {
				return one(stmt{class: classTrain, text: linregrSQL, want: linregrWant, trainRows: int64(len(d.reg.Y))})
			},
			direct: func(db *engine.DB, _ int64) error { return directLinregr(db) },
		},
		{
			name: "logregr_igd", head: true, perRound: per(5, scale), nArgs: 1,
			stmts: func(int64, int) []stmt {
				return one(stmt{class: classTrain, text: igdSQL, want: igdWant, trainRows: int64(len(d.cls.Y))})
			},
			direct: func(db *engine.DB, _ int64) error { return directIGD(db) },
		},
		{
			name: "kmeans", perRound: per(2, scale), nArgs: 1,
			stmts: func(int64, int) []stmt {
				return one(stmt{class: classTrain, text: kmeansSQL, want: kmeansWant, trainRows: int64(len(d.pts.Points))})
			},
			direct: func(db *engine.DB, _ int64) error { return directKMeans(db) },
		},
		{
			name: "refresh_score", perRound: per(3, scale), nArgs: 9000,
			stmts: func(arg int64, _ int) []stmt {
				thr := (float64(arg) - 2000 + 0.5) / 2000
				return []stmt{
					{class: classTrain, text: "SELECT (madlib.linregr('m4', y, x)).* FROM feat", want: m4Want, trainRows: int64(n)},
					{class: classScore, want: rowsCheck(0, map[string][]float64{"": {float64(scoreGE[arg+1])}}),
						text: fmt.Sprintf("SELECT count(*) FROM feat WHERE madlib.predict('m4', a, b, c, d) > %s", ftoa(thr))},
				}
			},
		},
	}
	return w
}

// per scales a per-round operation count, keeping at least one.
func per(n, scale int) int { return max(1, n/scale) }
