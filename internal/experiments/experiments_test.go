package experiments

import (
	"fmt"
	"strings"
	"testing"

	"madlib/internal/datagen"
	"madlib/internal/engine"
	"madlib/internal/linregr"
)

// TestFigure4ShapeHolds runs a reduced grid and asserts the qualitative
// findings of the paper's Figure 4:
//  1. v0.2.1beta is the slowest implementation everywhere;
//  2. v0.1alpha beats v0.3 at small k, v0.3 wins at large k;
//  3. time grows superlinearly in k;
//  4. more segments → less simulated time (near-linear).
//
// and this repo's addition to it: the batch generation, which folds four
// rows per pass over XᵀX, beats v0.3 at large k.
func TestFigure4ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	// Timing comparisons on a small shared host are occasionally perturbed
	// by OS noise even with per-segment minima; allow one re-measurement
	// before declaring the shape broken. When the host is erratically
	// loaded (e.g. `go test -bench ./...` running other packages' heavy
	// benchmarks on the same cores), the calibration check below skips the
	// assertions rather than reporting spurious failures.
	var issues []string
	for attempt := 0; attempt < 2; attempt++ {
		var stable bool
		issues, stable = checkFigure4Shape(t)
		if !stable {
			t.Skip("host timing unstable during measurement; shape assertions skipped")
		}
		if len(issues) == 0 {
			return
		}
	}
	for _, msg := range issues {
		t.Error(msg)
	}
}

// calibrationCell measures a fixed sentinel workload; comparing it before
// and after the grid detects erratic external load.
func calibrationCell(t *testing.T) float64 {
	t.Helper()
	gen := datagen.NewRegression(999, 20000, 20, 0.5)
	db := engine.Open(6)
	tbl, err := gen.LoadRegression(db, "cal")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := linregr.BuildAggregate(tbl, "y", "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RunSimulated(tbl, agg); err != nil {
		t.Fatal(err)
	}
	d, err := simulatedCriticalPath(db, tbl, agg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return float64(d)
}

func checkFigure4Shape(t *testing.T) (issues []string, stable bool) {
	t.Helper()
	before := calibrationCell(t)
	rows, err := Figure4(Figure4Config{
		Rows:     20000,
		Segments: []int{6, 24},
		Vars:     []int{10, 160},
		Trials:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := calibrationCell(t)
	ratio := after / before
	if ratio > 1.4 || ratio < 1/1.4 {
		return nil, false // environment shifted mid-measurement
	}
	get := func(segs, vars int, v linregr.Version) float64 {
		for _, r := range rows {
			if r.Segments == segs && r.Vars == vars && r.Version == v {
				return float64(r.SimTime)
			}
		}
		t.Fatalf("missing cell %d/%d/%v", segs, vars, v)
		return 0
	}
	badf := func(format string, args ...any) {
		issues = append(issues, fmt.Sprintf(format, args...))
	}
	for _, segs := range []int{6, 24} {
		for _, vars := range []int{10, 160} {
			beta := get(segs, vars, linregr.V021Beta)
			v03 := get(segs, vars, linregr.V03)
			alpha := get(segs, vars, linregr.V01Alpha)
			if beta <= v03 || beta <= alpha {
				badf("segs=%d k=%d: v0.2.1beta (%v) should be slowest (v0.3 %v, alpha %v)",
					segs, vars, beta, v03, alpha)
			}
		}
		// Crossover: alpha wins at k=10, v0.3 wins at k=160. The small-k
		// side is only asserted at 6 segments: at 24 segments each
		// segment holds ~833 rows and the constant merge/final tail
		// dominates both versions equally, washing out the µs-scale scan
		// difference.
		if segs == 6 {
			if a, v := get(segs, 10, linregr.V01Alpha), get(segs, 10, linregr.V03); a >= v {
				badf("segs=%d k=10: alpha (%v) should beat v0.3 (%v)", segs, a, v)
			}
		}
		if a, v := get(segs, 160, linregr.V01Alpha), get(segs, 160, linregr.V03); v >= a {
			badf("segs=%d k=160: v0.3 (%v) should beat alpha (%v)", segs, v, a)
		}
		// The fourth column: same arithmetic as v0.3, a quarter of the
		// passes over the k×k state.
		if bt, v := get(segs, 160, linregr.VBatch), get(segs, 160, linregr.V03); bt >= v {
			badf("segs=%d k=160: batch (%v) should beat v0.3 (%v)", segs, bt, v)
		}
		// Superlinear growth in k: 16× more vars ⇒ much more than 16× time.
		if t10, t160 := get(segs, 10, linregr.V03), get(segs, 160, linregr.V03); t160 < 20*t10 {
			badf("segs=%d: growth %v→%v not superlinear", segs, t10, t160)
		}
	}
	// Segment scaling at the big k: 4× segments must clearly help. At this
	// scaled-down row count the constant merge/final tail (Cholesky solve,
	// condition estimate — all k³ work a real cluster also pays once) caps
	// the ratio, so require ≥1.5× here; the rigorous near-linear check
	// lives in TestSpeedupNearLinear where rows/k is paper-proportioned.
	if t6, t24 := get(6, 160, linregr.V03), get(24, 160, linregr.V03); t6 < 1.5*t24 {
		badf("segment scaling weak: 6 segs %v vs 24 segs %v", t6, t24)
	}
	// Rendering includes every version column.
	rendered := FormatFigure4(rows)
	for _, col := range []string{"v0.3", "v0.2.1beta", "v0.1alpha", "batch"} {
		if !strings.Contains(rendered, col) {
			t.Fatalf("rendered table missing %q:\n%s", col, rendered)
		}
	}
	return issues, true
}

func TestFigure5SeriesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Figure5(Figure4Config{Rows: 2000, Segments: []int{6, 12}, Vars: []int{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	s := FormatFigure5(rows)
	if !strings.Contains(s, "6 segs") || !strings.Contains(s, "12 segs") {
		t.Fatalf("rendered series missing headers:\n%s", s)
	}
}

func TestOverheadIsSmallFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := Overhead(50000)
	if err != nil {
		t.Fatal(err)
	}
	// §4.4(a): fixed overhead ≪ bulk work.
	if res.OverheadFraction > 0.2 {
		t.Fatalf("overhead fraction = %v (empty %v, bulk %v)",
			res.OverheadFraction, res.EmptyQuery, res.BulkQuery)
	}
}

func TestSpeedupNearLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var last SpeedupRow
	for attempt := 0; attempt < 2; attempt++ {
		before := calibrationCell(t)
		rows, err := Speedup(100000, []int{6, 24})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(FormatSpeedup(rows), "speedup") {
			t.Fatal("render missing header")
		}
		after := calibrationCell(t)
		if r := after / before; r > 1.4 || r < 1/1.4 {
			t.Skip("host timing unstable during measurement; speedup assertion skipped")
		}
		last = rows[len(rows)-1]
		// Ideal is 4×; accept ≥ 2.5× (scheduling noise, merge tail). One
		// re-measurement is allowed on a noisy host.
		if last.Speedup >= 2.5 {
			return
		}
	}
	t.Fatalf("speedup 6→24 segments = %v", last.Speedup)
}

func TestTable1Render(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Linear Regression", "k-Means", "Count-Min", "Sparse Vectors"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2AllModelsImprove(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	rows, err := Table2(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("models = %d", len(rows))
	}
	for _, r := range rows {
		if r.FinalLoss >= r.InitialLoss {
			t.Errorf("%s: loss %v → %v did not improve", r.Model, r.InitialLoss, r.FinalLoss)
		}
	}
	s := FormatTable2(rows)
	for _, m := range []string{"Least Squares", "Lasso", "Logistic", "SVM", "Recommendation", "CRF"} {
		if !strings.Contains(s, m) {
			t.Fatalf("Table 2 render missing %q:\n%s", m, s)
		}
	}
}

func TestTable3AllMethodsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	res, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if res.FeatureCount < 50 {
		t.Fatalf("feature extraction produced only %d features", res.FeatureCount)
	}
	if res.ViterbiPOSAccuracy < 0.85 {
		t.Fatalf("POS accuracy = %v", res.ViterbiPOSAccuracy)
	}
	if res.ViterbiNERAccuracy < 0.9 {
		t.Fatalf("NER accuracy = %v", res.ViterbiNERAccuracy)
	}
	if res.MCMCMaxMarginalGap > 0.07 {
		t.Fatalf("Gibbs marginal gap = %v", res.MCMCMaxMarginalGap)
	}
	if res.MHMaxMarginalGap > 0.1 {
		t.Fatalf("MH marginal gap = %v", res.MHMaxMarginalGap)
	}
	if res.ERRecall < 0.85 {
		t.Fatalf("ER recall = %v", res.ERRecall)
	}
	if !strings.Contains(FormatTable3(res), "Viterbi") {
		t.Fatal("Table 3 render broken")
	}
}
