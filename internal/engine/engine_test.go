package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sumAgg is a simple SUM(col) aggregate used across tests.
func sumAgg(col int) Aggregate {
	return FuncAggregate{
		InitFn:       func() any { return 0.0 },
		TransitionFn: func(s any, r Row) any { return s.(float64) + r.Float(col) },
		MergeFn:      func(a, b any) any { return a.(float64) + b.(float64) },
		FinalFn:      func(s any) (any, error) { return s, nil },
	}
}

// countWhere counts the rows satisfying pred with a plain Run.
func countWhere(t *testing.T, db *DB, tbl *Table, pred func(Row) bool) int64 {
	t.Helper()
	v, err := db.Run(tbl, FuncAggregate{
		InitFn: func() any { return int64(0) },
		TransitionFn: func(s any, r Row) any {
			if pred(r) {
				return s.(int64) + 1
			}
			return s
		},
		MergeFn: func(a, b any) any { return a.(int64) + b.(int64) },
		FinalFn: func(s any) (any, error) { return s, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(int64)
}

func fill(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tbl.Insert(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateInsertCount(t *testing.T) {
	db := Open(4)
	tbl, err := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tbl, 10)
	if got := tbl.Count(); got != 10 {
		t.Fatalf("Count = %d", got)
	}
	// Round-robin should balance rows across the 4 segments.
	for i, seg := range tbl.Segments() {
		if seg.Len() < 2 || seg.Len() > 3 {
			t.Fatalf("segment %d has %d rows, want 2-3", i, seg.Len())
		}
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := Open(2)
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Fatal("empty schema should fail")
	}
	if _, err := db.CreateTable("t", Schema{{Name: "", Kind: Float}}); err == nil {
		t.Fatal("empty column name should fail")
	}
	if _, err := db.CreateTable("t", Schema{{Name: "a", Kind: Float}, {Name: "a", Kind: Int}}); err == nil {
		t.Fatal("duplicate column should fail")
	}
	if _, err := db.CreateTable("t", Schema{{Name: "a", Kind: Float}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", Schema{{Name: "a", Kind: Float}}); !errors.Is(err, ErrTableExists) {
		t.Fatalf("want ErrTableExists, got %v", err)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := Open(2)
	tbl, _ := db.CreateTable("t", Schema{
		{Name: "f", Kind: Float}, {Name: "v", Kind: Vector},
		{Name: "i", Kind: Int}, {Name: "s", Kind: String}, {Name: "b", Kind: Bool},
	})
	if err := tbl.Insert(1.5, []float64{1, 2}, int64(3), "x", true); err != nil {
		t.Fatal(err)
	}
	// int promotes into Float and Int columns.
	if err := tbl.Insert(2, []float64{}, 4, "y", false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("bad", []float64{}, 1, "z", true); !errors.Is(err, ErrType) {
		t.Fatalf("want ErrType, got %v", err)
	}
	if err := tbl.Insert(1.0); !errors.Is(err, ErrArity) {
		t.Fatalf("want ErrArity, got %v", err)
	}
}

func TestRunSum(t *testing.T) {
	db := Open(3)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	fill(t, tbl, 100)
	got, err := db.Run(tbl, sumAgg(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.(float64) != 4950 {
		t.Fatalf("sum = %v", got)
	}
}

func TestRunEmptyTable(t *testing.T) {
	db := Open(4)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	got, err := db.Run(tbl, sumAgg(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.(float64) != 0 {
		t.Fatalf("sum of empty = %v", got)
	}
}

// The core correctness property of the whole engine: a well-formed UDA
// returns the same answer regardless of segment count or row order.
// This is the data-parallelism contract from §3.1.1.
func TestSegmentInvarianceProperty(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(nRows))
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		var ref float64
		haveRef := false
		for _, segs := range []int{1, 2, 3, 7, 16} {
			db := Open(segs)
			tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
			perm := rng.Perm(len(vals))
			for _, p := range perm {
				if err := tbl.Insert(vals[p]); err != nil {
					return false
				}
			}
			got, err := db.Run(tbl, sumAgg(0))
			if err != nil {
				return false
			}
			// Compare with tolerance: float addition order varies.
			if !haveRef {
				ref, haveRef = got.(float64), true
			} else if diff := got.(float64) - ref; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGroupBy(t *testing.T) {
	db := Open(4)
	tbl, _ := db.CreateTable("t", Schema{{Name: "g", Kind: String}, {Name: "x", Kind: Float}})
	for i := 0; i < 20; i++ {
		g := "even"
		if i%2 == 1 {
			g = "odd"
		}
		if err := tbl.Insert(g, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.RunGroupBy(tbl, func(r Row) string { return r.Str(0) }, sumAgg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	if got["even"].(float64) != 90 || got["odd"].(float64) != 100 {
		t.Fatalf("group sums = %v", got)
	}
}

func TestGroupByMatchesManualPartition(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := Open(1 + rng.Intn(8))
		tbl, _ := db.CreateTable("t", Schema{{Name: "g", Kind: Int}, {Name: "x", Kind: Float}})
		want := map[string]float64{}
		for i := 0; i < int(nRows); i++ {
			g := int64(rng.Intn(4))
			v := rng.Float64()
			if err := tbl.Insert(g, v); err != nil {
				return false
			}
			want[fmt.Sprint(g)] += v
		}
		got, err := db.RunGroupBy(tbl, func(r Row) string { return fmt.Sprint(r.Int(0)) }, sumAgg(1))
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				return false
			}
			if d := g.(float64) - w; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectInto(t *testing.T) {
	db := Open(3)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}, {Name: "tag", Kind: String}})
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(float64(i), fmt.Sprint(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := db.SelectInto("evens", tbl, func(r Row) bool { return r.Str(1) == "0" }, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 5 {
		t.Fatalf("selected %d rows", out.Count())
	}
	if len(out.Schema()) != 1 || out.Schema()[0].Name != "x" {
		t.Fatalf("projected schema wrong: %v", out.Schema())
	}
	sum, err := db.Run(out, sumAgg(0))
	if err != nil {
		t.Fatal(err)
	}
	if sum.(float64) != 0+2+4+6+8 {
		t.Fatalf("sum = %v", sum)
	}
	if _, err := db.SelectInto("bad", tbl, nil, []string{"nope"}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("want ErrNoColumn, got %v", err)
	}
}

func TestUpdateInt(t *testing.T) {
	db := Open(2)
	tbl, _ := db.CreateTable("points", Schema{{Name: "x", Kind: Float}, {Name: "cid", Kind: Int}})
	for i := 0; i < 6; i++ {
		if err := tbl.Insert(float64(i), int64(-1)); err != nil {
			t.Fatal(err)
		}
	}
	err := db.UpdateInt(tbl, "cid", func(r Row) int64 {
		if r.Float(0) < 3 {
			return 0
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countWhere(t, db, tbl, func(r Row) bool { return r.Int(1) == 1 }); n != 3 {
		t.Fatalf("cluster-1 count = %d", n)
	}
	if err := db.UpdateInt(tbl, "x", func(Row) int64 { return 0 }); !errors.Is(err, ErrType) {
		t.Fatalf("updating float col as int should fail, got %v", err)
	}
	if err := db.UpdateInt(tbl, "zz", func(Row) int64 { return 0 }); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("want ErrNoColumn, got %v", err)
	}
}

func TestGenerateSeries(t *testing.T) {
	db := Open(4)
	tbl, err := db.GenerateSeries("s", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 10 {
		t.Fatalf("series count = %d", tbl.Count())
	}
	if n := countWhere(t, db, tbl, func(r Row) bool { return r.Int(0) >= 4 }); n != 7 {
		t.Fatalf("count >= 4: %d", n)
	}
	// Replacing an existing series is allowed.
	if _, err := db.GenerateSeries("s", 1, 3); err != nil {
		t.Fatal(err)
	}
}

func TestTempTablesAndCatalog(t *testing.T) {
	db := Open(2)
	if _, err := db.CreateTable("perm", Schema{{Name: "x", Kind: Float}}); err != nil {
		t.Fatal(err)
	}
	tmp, err := db.CreateTempTable("iter", Schema{{Name: "state", Kind: Vector}})
	if err != nil {
		t.Fatal(err)
	}
	if !tmp.Temp() {
		t.Fatal("temp flag lost")
	}
	names := db.TableNames()
	if len(names) != 2 {
		t.Fatalf("catalog = %v", names)
	}
	if err := db.DropTable(tmp.Name()); err != nil {
		t.Fatal(err)
	}
	if n := db.TableNames(); len(n) != 1 || n[0] != "perm" {
		t.Fatalf("after dropping the temp table: %v", n)
	}
	if _, err := db.Table("missing"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	if err := db.DropTable("perm"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("perm"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	db := Open(2)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	fill(t, tbl, 5)
	tbl.Truncate()
	if tbl.Count() != 0 {
		t.Fatalf("count after truncate = %d", tbl.Count())
	}
	fill(t, tbl, 3)
	if tbl.Count() != 3 {
		t.Fatalf("count after refill = %d", tbl.Count())
	}
}

func TestForEachSegmentOrdering(t *testing.T) {
	db := Open(3)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	fill(t, tbl, 30)
	// Within a segment rows must appear in insertion order (monotone x for
	// round-robin inserts). State is per-segment (one slot per goroutine),
	// matching the callback's no-locking contract.
	last := make([]float64, 3)
	seen := make([]bool, 3)
	err := db.ForEachSegment(tbl, func(seg int, r Row) error {
		if seen[seg] && r.Float(0) <= last[seg] {
			return fmt.Errorf("segment %d out of order: %v after %v", seg, r.Float(0), last[seg])
		}
		last[seg], seen[seg] = r.Float(0), true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRowsMaterialization(t *testing.T) {
	db := Open(2)
	tbl, _ := db.CreateTable("t", Schema{{Name: "v", Kind: Vector}, {Name: "s", Kind: String}})
	if err := tbl.Insert([]float64{1, 2}, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]float64{3}, "b"); err != nil {
		t.Fatal(err)
	}
	rows := db.Rows(tbl)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if _, ok := row[0].([]float64); !ok {
			t.Fatalf("vector column wrong type: %T", row[0])
		}
	}
}

func TestStatisticsCounters(t *testing.T) {
	db := Open(2)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	fill(t, tbl, 10)
	queries := db.Metrics().Counter("engine_queries")
	q0, r0 := queries.Value(), db.RowsScanned()
	if _, err := db.Run(tbl, sumAgg(0)); err != nil {
		t.Fatal(err)
	}
	if queries.Value() != q0+1 {
		t.Fatal("query counter not incremented")
	}
	if db.RowsScanned() != r0+10 {
		t.Fatalf("rows scanned = %d, want %d", db.RowsScanned(), r0+10)
	}
}

func TestOpenClampsSegments(t *testing.T) {
	if db := Open(0); db.SegmentCount() != 1 {
		t.Fatal("segments should clamp to 1")
	}
}

func BenchmarkRunSum(b *testing.B) {
	db := Open(8)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	for i := 0; i < 100000; i++ {
		if err := tbl.Insert(float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	agg := sumAgg(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(tbl, agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryOverheadEmptyTable(b *testing.B) {
	// §4.4: "The overhead for a single query is very low and only a
	// fraction of a second." This measures our fixed per-query cost.
	db := Open(8)
	tbl, _ := db.CreateTable("t", Schema{{Name: "x", Kind: Float}})
	agg := sumAgg(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(tbl, agg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCreateTableFrom checks the column-wise table constructor against
// row-by-row Insert: same per-segment placement for every kind and for
// row counts around the segment count, one version bump, a continued
// round-robin, and nothing registered when the columns do not fit.
func TestCreateTableFrom(t *testing.T) {
	schema := Schema{
		{Name: "f", Kind: Float}, {Name: "v", Kind: Vector}, {Name: "i", Kind: Int},
		{Name: "s", Kind: String}, {Name: "b", Kind: Bool},
	}
	row := func(r int) []any {
		return []any{float64(r) / 2, []float64{float64(r)}, int64(r), fmt.Sprint("s", r), r%2 == 0}
	}
	for _, n := range []int{0, 1, 3, 4, 5, 1001} {
		db := Open(4)
		cols := make([]ColumnData, len(schema))
		want, err := db.CreateTable("want", schema)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			v := row(r)
			cols[0].Floats = append(cols[0].Floats, v[0].(float64))
			cols[1].Vectors = append(cols[1].Vectors, v[1].([]float64))
			cols[2].Ints = append(cols[2].Ints, v[2].(int64))
			cols[3].Strings = append(cols[3].Strings, v[3].(string))
			cols[4].Bools = append(cols[4].Bools, v[4].(bool))
			if err := want.Insert(v...); err != nil {
				t.Fatal(err)
			}
		}
		got, err := db.CreateTableFrom("got", schema, n, cols)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Count() != int64(n) || got.Version() != 1 {
			t.Fatalf("n=%d: count %d, version %d", n, got.Count(), got.Version())
		}
		for _, tbl := range []*Table{got, want} {
			if err := tbl.Insert(row(n)...); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(db.Rows(got), db.Rows(want)) {
			t.Fatalf("n=%d: rows placed differently from Insert", n)
		}
		if _, err := db.CreateTableFrom("got", schema, n, cols); !errors.Is(err, ErrTableExists) {
			t.Fatalf("n=%d: second create: %v", n, err)
		}
		short := append([]ColumnData(nil), cols...)
		short[2] = ColumnData{Ints: make([]int64, n+1)}
		if _, err := db.CreateTableFrom("bad", schema, n, short); !errors.Is(err, ErrType) {
			t.Fatalf("n=%d: mismatched lane: %v", n, err)
		}
		if _, err := db.CreateTableFrom("bad", schema, n, cols[:2]); !errors.Is(err, ErrArity) {
			t.Fatalf("n=%d: missing columns: %v", n, err)
		}
		if _, err := db.Table("bad"); !errors.Is(err, ErrNoTable) {
			t.Fatalf("n=%d: a failed create registered its table: %v", n, err)
		}
	}
}

// TestAppendColumns checks the column-wise append against row-by-row
// Insert on a table whose insertion pointer is mid-round: same placement,
// one version bump for the whole batch, and a rejected batch writes
// nothing.
func TestAppendColumns(t *testing.T) {
	schema := Schema{{Name: "i", Kind: Int}, {Name: "s", Kind: String}}
	for _, n := range []int{0, 1, 2, 5, 9} {
		db := Open(4)
		got, _ := db.CreateTable("got", schema)
		want, _ := db.CreateTable("want", schema)
		for _, tbl := range []*Table{got, want} {
			for i := int64(-1); i >= -3; i-- {
				if err := tbl.Insert(i, "pre"); err != nil {
					t.Fatal(err)
				}
			}
		}
		cols := []ColumnData{{}, {}}
		for r := 0; r < n; r++ {
			cols[0].Ints = append(cols[0].Ints, int64(r))
			cols[1].Strings = append(cols[1].Strings, fmt.Sprint("s", r))
			if err := want.Insert(int64(r), fmt.Sprint("s", r)); err != nil {
				t.Fatal(err)
			}
		}
		v0 := got.Version()
		if err := got.AppendColumns(n, cols); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Version() != v0+1 || got.Count() != int64(3+n) {
			t.Fatalf("n=%d: version %d -> %d, count %d", n, v0, got.Version(), got.Count())
		}
		for _, tbl := range []*Table{got, want} {
			if err := tbl.Insert(int64(99), "post"); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(db.Rows(got), db.Rows(want)) {
			t.Fatalf("n=%d: rows placed differently from Insert", n)
		}
		v1, rows := got.Version(), db.Rows(got)
		bad := []ColumnData{{Ints: []int64{1, 2}}, {Strings: []string{"a"}}}
		if err := got.AppendColumns(2, bad); !errors.Is(err, ErrType) {
			t.Fatalf("n=%d: short lane: %v", n, err)
		}
		if err := got.AppendColumns(1, bad[:1]); !errors.Is(err, ErrArity) {
			t.Fatalf("n=%d: missing column: %v", n, err)
		}
		if got.Version() != v1 || !reflect.DeepEqual(db.Rows(got), rows) {
			t.Fatalf("n=%d: a rejected append changed the table", n)
		}
	}
}
