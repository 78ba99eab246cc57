package linregr

// Differential suite for the default (batch) generation. V03 folds the
// same rows one at a time through the abstraction layer and a rank-1
// update; the batch transition must reproduce it bit for bit — same
// screening, same error, same floating-point order — on every driver and
// at every worker count.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"madlib/internal/datagen"
	"madlib/internal/engine"
)

func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumRows != want.NumRows {
		t.Fatalf("%s: NumRows = %d, want %d", label, got.NumRows, want.NumRows)
	}
	sameFloats(t, label+" Coef", got.Coef, want.Coef)
	sameFloats(t, label+" R2", []float64{got.R2}, []float64{want.R2})
	sameFloats(t, label+" StdErr", got.StdErr, want.StdErr)
	sameFloats(t, label+" TStats", got.TStats, want.TStats)
	sameFloats(t, label+" PValues", got.PValues, want.PValues)
	sameFloats(t, label+" ConditionNo", []float64{got.ConditionNo}, []float64{want.ConditionNo})
}

// bothVersions runs the default and V03 over tbl and requires the same
// outcome: the same error text, or bitwise-equal results.
func bothVersions(t *testing.T, label string, db *engine.DB, tbl *engine.Table) *Result {
	t.Helper()
	got, gotErr := Run(db, tbl, "y", "x")
	want, wantErr := Run(db, tbl, "y", "x", WithVersion(V03))
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: batch error %v, v0.3 error %v", label, gotErr, wantErr)
		}
		return nil
	}
	sameResult(t, label, got, want)
	return got
}

func TestBatchMatchesV03AtEveryBoundary(t *testing.T) {
	// One segment, so the row counts land on the 4-row block, the
	// 1024-row batch and the 4096-row morsel boundaries themselves.
	for _, n := range []int{0, 1, 3, 4, 5, 1023, 1024, 1025, 4097} {
		db := engine.Open(1)
		gen := datagen.NewRegression(int64(n)+1, n, 7, 0.5)
		tbl := loadXY(t, db, "d", gen.X, gen.Y)
		res := bothVersions(t, fmt.Sprintf("n=%d", n), db, tbl)
		if (res == nil) != (n == 0) {
			t.Fatalf("n=%d: result %v", n, res)
		}
	}
}

func TestBatchMatchesV03AcrossWorkerCounts(t *testing.T) {
	// The repo benchmark's shape: 100k × 40 over four segments, seven
	// morsels a segment.
	db := engine.Open(4)
	tbl, err := datagen.NewRegression(1, 100_000, 40, 0.1).LoadRegression(db, "reg")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(db, tbl, "y", "x", WithVersion(V03))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := Run(db, tbl, "y", "x")
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, want)
	}
}

func TestBatchScreensNonFiniteAtEveryBlockPosition(t *testing.T) {
	bad := map[string]func(y *float64, x []float64){
		"NaN y":  func(y *float64, _ []float64) { *y = math.NaN() },
		"+Inf x": func(_ *float64, x []float64) { x[2] = math.Inf(1) },
		"-Inf x": func(_ *float64, x []float64) { x[0] = math.Inf(-1) },
	}
	const n = 14 // three full blocks and a tail once one row is screened
	for name, plant := range bad {
		for pos := 0; pos < 8; pos++ {
			gen := datagen.NewRegression(5, n, 3, 0.5)
			plant(&gen.Y[pos], gen.X[pos])
			db := engine.Open(1)
			res := bothVersions(t, fmt.Sprintf("%s at %d", name, pos), db, loadXY(t, db, "d", gen.X, gen.Y))
			if res.NumRows != n-1 {
				t.Fatalf("%s at %d: NumRows = %d, want %d", name, pos, res.NumRows, n-1)
			}
		}
	}
}

func TestBatchWidthMismatchMidBatch(t *testing.T) {
	gen := datagen.NewRegression(6, 12, 3, 0.5)
	const badRow = 6 // two rows into the second block
	gen.X[badRow] = []float64{1, 2}
	db := engine.Open(1)
	tbl := loadXY(t, db, "d", gen.X, gen.Y)
	if res := bothVersions(t, "mismatch", db, tbl); res != nil {
		t.Fatal("expected the width error")
	}

	// The states behind that error: everything before the bad row is
	// accumulated, nothing after it, exactly as v0.3 leaves it.
	fold := func(v Version) *state {
		agg, err := BuildAggregate(tbl, "y", "x", WithVersion(v))
		if err != nil {
			t.Fatal(err)
		}
		st := agg.Init()
		m := tbl.Morsels()[0]
		if v == V03 {
			for i := 0; i < m.Len(); i++ {
				st = agg.Transition(st, m.Row(i))
			}
		} else if err := m.ForEachBatch(func(b engine.ColBatch) error {
			st = agg.(engine.BatchAggregate).TransitionBatch(st, b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return st.(*state)
	}
	got, want := fold(VBatch), fold(V03)
	if got.err == nil || got.numRows != badRow || want.numRows != badRow {
		t.Fatalf("batch err %v after %d rows, v0.3 after %d rows, want %d", got.err, got.numRows, want.numRows, badRow)
	}
	sameFloats(t, "xtX", got.xtX, want.xtX)
	sameFloats(t, "xtY", got.xtY, want.xtY)
}

func TestBatchThroughGroupByMatchesV03(t *testing.T) {
	// RunGroupBy is a row-taking driver: the batch generation sees one-row
	// batches there, so every row goes through the rank-1 tail.
	db := engine.Open(3)
	gen := datagen.NewRegression(8, 600, 5, 0.5)
	gen.Y[17] = math.NaN()
	tbl := loadXY(t, db, "d", gen.X, gen.Y)
	key := func(r engine.Row) string { return fmt.Sprint(r.Index() % 3) }
	got, err := RunGroupBy(db, tbl, "y", "x", key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunGroupBy(db, tbl, "y", "x", key, WithVersion(V03))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("groups: %d vs %d", len(got), len(want))
	}
	for k, w := range want {
		sameResult(t, "group "+k, got[k], w)
	}
}
