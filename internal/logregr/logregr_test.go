package logregr

import (
	"errors"
	"math"
	"strings"
	"testing"

	"madlib/internal/array"
	"madlib/internal/datagen"
	"madlib/internal/engine"
)

func TestIRLSRecoversCoefficients(t *testing.T) {
	db := engine.Open(4)
	gen := datagen.NewLogistic(1, 20000, 4)
	tbl, err := gen.Load(db, "d")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(db, tbl, "y", "x", Options{Solver: IRLS})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gen.Coef {
		if math.Abs(res.Coef[i]-gen.Coef[i]) > 0.15 {
			t.Fatalf("coef[%d] = %v, true %v", i, res.Coef[i], gen.Coef[i])
		}
	}
	if res.NumRows != 20000 {
		t.Fatalf("NumRows = %d", res.NumRows)
	}
	if res.Iterations < 2 {
		t.Fatalf("IRLS converged implausibly fast: %d", res.Iterations)
	}
	if res.LogLikelihood >= 0 {
		t.Fatalf("log-likelihood = %v", res.LogLikelihood)
	}
}

func TestSolversAgree(t *testing.T) {
	db := engine.Open(3)
	gen := datagen.NewLogistic(2, 8000, 3)
	tbl, err := gen.Load(db, "d")
	if err != nil {
		t.Fatal(err)
	}
	irls, err := Run(db, tbl, "y", "x", Options{Solver: IRLS})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := Run(db, tbl, "y", "x", Options{Solver: CG, Tolerance: 1e-10, MaxIterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	// IGD is stochastic: tolerance is on log-likelihood stability, which
	// for a √t step schedule settles around 1e-4 relative.
	igd, err := Run(db, tbl, "y", "x", Options{Solver: IGD, Tolerance: 1e-4, MaxIterations: 3000, StepSize: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range irls.Coef {
		if math.Abs(cg.Coef[i]-irls.Coef[i]) > 0.02 {
			t.Fatalf("CG coef[%d] = %v, IRLS %v", i, cg.Coef[i], irls.Coef[i])
		}
		if math.Abs(igd.Coef[i]-irls.Coef[i]) > 0.15 {
			t.Fatalf("IGD coef[%d] = %v, IRLS %v", i, igd.Coef[i], irls.Coef[i])
		}
	}
	// IRLS (Newton) should take far fewer passes than IGD.
	if irls.Iterations >= igd.Iterations {
		t.Fatalf("IRLS %d iterations vs IGD %d", irls.Iterations, igd.Iterations)
	}
}

func TestDriverTraceFigure3(t *testing.T) {
	// The control flow of Figure 3: CREATE TEMP TABLE, then per iteration
	// an INSERT and a convergence probe, then the final SELECT.
	db := engine.Open(2)
	gen := datagen.NewLogistic(3, 500, 2)
	tbl, _ := gen.Load(db, "d")
	res, err := Run(db, tbl, "y", "x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace[0] != "CREATE TEMP TABLE iterative_algorithm" {
		t.Fatalf("trace start = %q", res.Trace[0])
	}
	if res.Trace[len(res.Trace)-1] != "SELECT FINAL RESULT" {
		t.Fatalf("trace end = %q", res.Trace[len(res.Trace)-1])
	}
	inserts, checks := 0, 0
	for _, step := range res.Trace {
		if strings.HasPrefix(step, "INSERT iteration") {
			inserts++
		}
		if strings.HasPrefix(step, "CONVERGENCE CHECK") {
			checks++
		}
	}
	if inserts != res.Iterations || checks != res.Iterations {
		t.Fatalf("trace has %d inserts, %d checks for %d iterations", inserts, checks, res.Iterations)
	}
}

func TestPValuesSeparateSignalFromNoise(t *testing.T) {
	db := engine.Open(2)
	gen := datagen.NewLogistic(4, 20000, 2)
	// Append a pure-noise feature.
	for i := range gen.X {
		gen.X[i] = append(gen.X[i], math.Sin(float64(i*7919)))
	}
	tbl, _ := gen.Load(db, "d")
	res, err := Run(db, tbl, "y", "x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValues[1] > 1e-4 {
		t.Fatalf("signal feature p = %v", res.PValues[1])
	}
	if res.PValues[2] < 0.001 {
		t.Fatalf("noise feature p = %v (spurious significance)", res.PValues[2])
	}
	// Odds ratios are exp(coef).
	for i := range res.Coef {
		if math.Abs(res.OddsRatios[i]-math.Exp(res.Coef[i])) > 1e-12 {
			t.Fatal("odds ratios inconsistent")
		}
	}
}

func TestPredict(t *testing.T) {
	coef := []float64{0, 2}
	if p := Predict(coef, []float64{1, 0}); p != 0.5 {
		t.Fatalf("Predict at 0 = %v", p)
	}
	if p := Predict(coef, []float64{1, 10}); p < 0.99 {
		t.Fatalf("Predict strong positive = %v", p)
	}
}

func TestEmptyTable(t *testing.T) {
	db := engine.Open(2)
	tbl, _ := db.CreateTable("d", engine.Schema{
		{Name: "y", Kind: engine.Float},
		{Name: "x", Kind: engine.Vector},
	})
	if _, err := Run(db, tbl, "y", "x", Options{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
}

func TestColumnValidation(t *testing.T) {
	db := engine.Open(1)
	tbl, _ := db.CreateTable("d", engine.Schema{
		{Name: "y", Kind: engine.Float},
		{Name: "x", Kind: engine.Vector},
	})
	if _, err := Run(db, tbl, "zz", "x", Options{}); err == nil {
		t.Fatal("missing column should fail")
	}
	if _, err := Run(db, tbl, "x", "y", Options{}); err == nil {
		t.Fatal("wrong kinds should fail")
	}
}

func TestSegmentInvarianceIRLS(t *testing.T) {
	gen := datagen.NewLogistic(6, 3000, 3)
	var ref []float64
	for _, segs := range []int{1, 4, 16} {
		db := engine.Open(segs)
		tbl, _ := gen.Load(db, "d")
		res, err := Run(db, tbl, "y", "x", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Coef
			continue
		}
		for i := range ref {
			if math.Abs(res.Coef[i]-ref[i]) > 1e-6 {
				t.Fatalf("segments=%d coef %v vs %v", segs, res.Coef, ref)
			}
		}
	}
}

func TestRunPerGroup(t *testing.T) {
	// Two groups with opposite-signed slopes; the join-construct helper
	// must fit each separately.
	db := engine.Open(3)
	tbl, _ := db.CreateTable("d", engine.Schema{
		{Name: "g", Kind: engine.String},
		{Name: "y", Kind: engine.Float},
		{Name: "x", Kind: engine.Vector},
	})
	genA := datagen.NewLogistic(31, 3000, 2)
	genB := datagen.NewLogistic(32, 3000, 2)
	for i := range genA.X {
		if err := tbl.Insert("a", genA.Y[i], genA.X[i]); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert("b", genB.Y[i], genB.X[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := RunPerGroup(db, tbl, "y", "x", func(r engine.Row) string { return r.Str(0) }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	for gName, gen := range map[string]*datagen.Classification{"a": genA, "b": genB} {
		res := got[gName]
		if res.NumRows != 3000 {
			t.Fatalf("group %q rows = %d", gName, res.NumRows)
		}
		for i := range gen.Coef {
			if math.Abs(res.Coef[i]-gen.Coef[i]) > 0.3 {
				t.Fatalf("group %q coef[%d] = %v, true %v", gName, i, res.Coef[i], gen.Coef[i])
			}
		}
	}
	// No leaked per-group temp tables.
	for _, name := range db.TableNames() {
		if name != "d" {
			t.Fatalf("leaked table %q", name)
		}
	}
}

func BenchmarkIRLS(b *testing.B) {
	db := engine.Open(4)
	gen := datagen.NewLogistic(7, 10000, 5)
	tbl, _ := gen.Load(db, "d")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(db, tbl, "y", "x", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIGDOnePass(b *testing.B) {
	db := engine.Open(4)
	gen := datagen.NewLogistic(8, 10000, 5)
	tbl, _ := gen.Load(db, "d")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(db, tbl, "y", "x", Options{Solver: IGD, MaxIterations: 2, Tolerance: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLogisticStepMatchesFormula pins negLogLik.Step, which shares one
// exp(-z) between the log-likelihood and the sigmoid, to the two
// formulas it replaces (rowLogLik and sigma, each with its own exp),
// bit for bit: the returned loss and the updated weights, over a grid
// of z that includes the exp overflow edge (±745), ±Inf and NaN, for
// both labels and a NaN label.
func TestLogisticStepMatchesFormula(t *testing.T) {
	zs := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0.5, -0.5, 1, -1, 3.25, -3.25,
		36, -36, 40, -40, 709, -709, 710, -710, 744, -744, 745, -745, 746, -746,
		1e10, -1e10, math.Inf(1), math.Inf(-1), math.NaN()}
	for z := -50.0; z <= 50; z += 0.37 {
		zs = append(zs, z)
	}
	const alpha = 0.125
	for _, z := range zs {
		for _, y := range []float64{0, 1, math.NaN()} {
			// w = {z}, x = {1}: the dot product is z (-0 becomes +0).
			x, w, wantW := []float64{1}, []float64{z}, []float64{z}
			got := negLogLik{k: 1}.Step(w, x, y, alpha)
			zd := array.Dot(wantW, x)
			want := -rowLogLik(zd, y)
			array.Axpy(alpha*(y-sigma(zd)), x, wantW)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("z=%v y=%v: loss %v (%#x), formula %v (%#x)", z, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if math.Float64bits(w[0]) != math.Float64bits(wantW[0]) {
				t.Errorf("z=%v y=%v: weight %v, formula %v", z, y, w[0], wantW[0])
			}
		}
	}
}
