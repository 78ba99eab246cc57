package sql

import (
	"fmt"
	"math"
	"testing"

	"madlib/internal/engine"
)

// renderFinal renders an aggregate's final value bit-exactly: floats by
// their bits, so NaN payloads and the sign of zero count.
func renderFinal(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("float64 %#x", math.Float64bits(f))
	}
	return fmt.Sprintf("%T %v", v, v)
}

// foldFourWays folds vals into acc as a lane with no mask, as a masked
// lane with junk at the masked-out positions, through the grouped fold
// into one group of three with the junk in the other two, and boxed
// through anyAcc with NULLs between the values, and returns the four
// finals.
func foldFourWays[T any](t *testing.T, acc aggAcc[T], anyAcc aggAcc[any], vals []T, junk T) [4]string {
	t.Helper()
	var out [4]string
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	col := func(a aggCol, n int) aggCol {
		a.grow(n)
		return a
	}
	c := col(acc.newCol(), 1)
	must(acc.fold(c, vals, nil))
	out[0] = renderFinal(acc.final(c, 0))

	padded, mask := []T{junk}, []bool{false}
	ids := []int32{0}
	for _, v := range vals {
		padded, mask = append(padded, v, junk), append(mask, true, false)
		ids = append(ids, 1, 2)
	}
	c = col(acc.newCol(), 1)
	must(acc.fold(c, padded, mask))
	out[1] = renderFinal(acc.final(c, 0))

	c = col(acc.newCol(), 3)
	must(acc.foldG(c, ids, padded, nil))
	out[2] = renderFinal(acc.final(c, 1))

	boxed := []any{nil}
	for _, v := range vals {
		boxed = append(boxed, v, nil)
	}
	c = col(anyAcc.newCol(), 1)
	must(anyAcc.fold(c, boxed, nil))
	out[3] = renderFinal(anyAcc.final(c, 0))
	return out
}

// TestAccumulatorLaneFormsAgree pins each built-in aggregate's single
// accumulator per lane kind: the unmasked lane fold (the native and
// closure lanes), the masked fold (validity and fused predicate lanes),
// the grouped fold (the grouped executor) and the boxed lane (bool,
// Vector and run-time-typed arguments) must finalize bit-identically.
func TestAccumulatorLaneFormsAgree(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	floats := [][]float64{
		{1.5, negZero, 0, nan, 2.25, -3},
		{nan, 1, -1},
		{negZero, 0},
		{0, negZero},
		{0.1, 0.2, 0.3, 1e16, -1e16},
		{7}, // n < 2: variance and stddev are NULL
		{},
	}
	ints := [][]int64{
		{1 << 53, 1, 1, -5}, // past 2^53: sum stays exact
		{math.MaxInt64, 1},  // wraps like the kernels
		{math.MinInt64, -1, 0},
		{3},
		{},
	}
	strs := [][]string{{"b", "a", "c", "a"}, {"", "z"}, {"x"}, {}}
	check := func(label string, got [4]string) {
		t.Helper()
		for i, way := range []string{"masked fold", "grouped fold", "boxed lane"} {
			if got[i+1] != got[0] {
				t.Errorf("%s: %s final %s, lane fold %s", label, way, got[i+1], got[0])
			}
		}
	}
	for _, name := range []string{"count", "sum", "avg", "min", "max", "variance", "stddev"} {
		for _, vals := range floats {
			check(fmt.Sprintf("%s(float) over %v", name, vals), foldFourWays(t, accF(name), accA(name), vals, -1e300))
		}
		for _, vals := range ints {
			check(fmt.Sprintf("%s(bigint) over %v", name, vals), foldFourWays(t, accI(name), accA(name), vals, math.MinInt64/3))
		}
		if acc, ok := accS(name); ok {
			for _, vals := range strs {
				check(fmt.Sprintf("%s(text) over %q", name, vals), foldFourWays(t, acc, accA(name), vals, "~junk"))
			}
		} else if name == "count" || name == "min" || name == "max" {
			t.Errorf("%s has no text fold", name)
		}
	}
	// The finals themselves, where a wrong fold could still agree with
	// itself four ways.
	for _, tc := range []struct {
		got, want string
	}{
		{foldFourWays(t, accI("sum"), accA("sum"), ints[0], 0)[0], "int64 9007199254740989"},
		{foldFourWays(t, accF("sum"), accA("sum"), floats[2], 0)[0], renderFinal(0.0, nil)},
		{foldFourWays(t, accF("min"), accA("min"), floats[2], 0)[0], renderFinal(negZero, nil)},
		{foldFourWays(t, accF("max"), accA("max"), floats[1], 0)[0], renderFinal(nan, nil)},
		{foldFourWays(t, accF("variance"), accA("variance"), floats[5], 0)[0], "<nil> <nil>"},
		{foldFourWays(t, accI("stddev"), accA("stddev"), ints[3], 0)[0], "<nil> <nil>"},
		{foldFourWays(t, accF("count"), accA("count"), floats[0], 0)[0], "int64 6"},
	} {
		if tc.got != tc.want {
			t.Errorf("final %s, want %s", tc.got, tc.want)
		}
	}
}

// newArrayGetDB loads t(g bigint, v float[], i bigint) with v = {1,2,3}
// on every row: array_get(v, i) fails on the rows whose i is not 1..3.
func newArrayGetDB(t *testing.T, segments int, rows [][2]int64) *engine.DB {
	t.Helper()
	db := engine.Open(segments)
	tbl, err := db.CreateTable("t", engine.Schema{
		{Name: "g", Kind: engine.Int},
		{Name: "v", Kind: engine.Vector},
		{Name: "i", Kind: engine.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := tbl.Insert(r[0], []float64{1, 2, 3}, r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// requireOneError runs query runs times in default and in oracle mode
// and requires the error text want every time.
func requireOneError(t *testing.T, db *engine.DB, query, want string, runs int) {
	t.Helper()
	for _, oracle := range []bool{false, true} {
		sess := NewSession(db)
		sess.SetBatchExecution(!oracle)
		for run := 0; run < runs; run++ {
			if _, err := sess.Query(query); errText(err) != want {
				t.Fatalf("oracle=%v run %d: %q: error %q, want %q", oracle, run, query, errText(err), want)
			}
		}
	}
}

// TestGroupedRowFoldReportsOneError pins the error of a grouped
// aggregate whose argument has no kernel (array_get over a Vector
// column): the first failing row aborts its morsel, so the statement
// reports the first morsel's error every time, in both modes, instead
// of whichever group a map walk finalized first.
func TestGroupedRowFoldReportsOneError(t *testing.T) {
	const query = `SELECT g, sum(array_get(v, i)) FROM t GROUP BY g`
	var rows [][2]int64
	for g := int64(0); g < 16; g++ {
		rows = append(rows, [2]int64{g, 4 + g})
	}
	requireOneError(t, newArrayGetDB(t, 3, rows), query, "sql: array_get: index 4 out of range 1..3", 50)

	t.Run("parallel", func(t *testing.T) {
		withGOMAXPROCS(t, 4)
		n := 4 * engine.MorselRows
		if n < engine.ParallelRowThreshold {
			t.Fatal("table too small for the worker pool")
		}
		// Every 2999th row fails, each with its own index, so the
		// failing rows fall in several morsels of both segments.
		rows = rows[:0]
		for r := 0; r < n; r++ {
			i := int64(1)
			if r%2999 == 1500 {
				i = int64(4 + (n-r)/2999)
			}
			rows = append(rows, [2]int64{int64(r % 16), i})
		}
		db := newArrayGetDB(t, 2, rows)
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		morsels, want, failing := tbl.Morsels(), "", map[int]bool{}
		for mi, m := range morsels {
			for j := 0; j < m.Len(); j++ {
				if i := m.Row(j).Int(2); i > 3 {
					failing[mi] = true
					if want == "" {
						want = fmt.Sprintf("sql: array_get: index %d out of range 1..3", i)
					}
				}
			}
		}
		if len(morsels) < 3 || len(failing) < 3 {
			t.Fatalf("failing rows in %d of %d morsels; want several", len(failing), len(morsels))
		}
		requireOneError(t, db, query, want, 20)
	})
}
