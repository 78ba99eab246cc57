package profile

import (
	"math"
	"strings"
	"testing"

	"madlib/internal/engine"
)

func buildMixedTable(t *testing.T, db *engine.DB) *engine.Table {
	t.Helper()
	tbl, err := db.CreateTable("mixed", engine.Schema{
		{Name: "f", Kind: engine.Float},
		{Name: "i", Kind: engine.Int},
		{Name: "s", Kind: engine.String},
		{Name: "b", Kind: engine.Bool},
		{Name: "v", Kind: engine.Vector},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(
			float64(i),
			int64(i%10),
			strings.Repeat("x", 1+i%5),
			i%2 == 0,
			[]float64{float64(i)},
		); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestProfileMixedTable(t *testing.T) {
	db := engine.Open(4)
	buildMixedTable(t, db)
	tp, err := Run(db, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Rows != 1000 || len(tp.Columns) != 5 {
		t.Fatalf("rows=%d cols=%d", tp.Rows, len(tp.Columns))
	}
	byName := map[string]ColumnProfile{}
	for _, c := range tp.Columns {
		byName[c.Name] = c
	}

	f := byName["f"]
	if f.Min != 0 || f.Max != 999 {
		t.Fatalf("float min/max = %v/%v", f.Min, f.Max)
	}
	if math.Abs(f.Mean-499.5) > 1e-9 {
		t.Fatalf("float mean = %v", f.Mean)
	}
	if f.Distinct < 900 || f.Distinct > 1100 {
		t.Fatalf("float distinct ≈ %d", f.Distinct)
	}
	if len(f.Quantiles) != 3 || math.Abs(f.Quantiles[1]-499.5) > 25 {
		t.Fatalf("float quartiles = %v", f.Quantiles)
	}

	i := byName["i"]
	if i.Distinct != 10 {
		t.Fatalf("int distinct = %d", i.Distinct)
	}
	if i.Min != 0 || i.Max != 9 {
		t.Fatalf("int min/max = %v/%v", i.Min, i.Max)
	}
	if len(i.MostFrequent) != 5 {
		t.Fatalf("MFV = %v", i.MostFrequent)
	}
	// Uniform distribution: each value appears 100 times.
	if i.MostFrequent[0].Count != 100 {
		t.Fatalf("MFV top count = %d", i.MostFrequent[0].Count)
	}

	s := byName["s"]
	if s.MinLen != 1 || s.MaxLen != 5 || math.Abs(s.AvgLen-3) > 1e-9 {
		t.Fatalf("string lens = %d/%d/%v", s.MinLen, s.MaxLen, s.AvgLen)
	}
	if s.Distinct != 5 {
		t.Fatalf("string distinct = %d", s.Distinct)
	}

	b := byName["b"]
	if b.Distinct != 2 {
		t.Fatalf("bool distinct = %d", b.Distinct)
	}

	// The text report mentions every column.
	report := tp.Format()
	for _, col := range []string{"f", "i", "s", "b", "v"} {
		if !strings.Contains(report, col) {
			t.Fatalf("report missing column %q:\n%s", col, report)
		}
	}
}

func TestProfileEmptyTable(t *testing.T) {
	db := engine.Open(2)
	if _, err := db.CreateTable("empty", engine.Schema{{Name: "x", Kind: engine.Float}}); err != nil {
		t.Fatal(err)
	}
	tp, err := Run(db, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Rows != 0 {
		t.Fatalf("rows = %d", tp.Rows)
	}
	if !math.IsNaN(tp.Columns[0].Mean) {
		t.Fatalf("empty column mean should be NaN, got %v", tp.Columns[0].Mean)
	}
}

func TestProfileValidatesName(t *testing.T) {
	db := engine.Open(1)
	if _, err := Run(db, "no such; table"); err == nil {
		t.Fatal("invalid identifier should fail fast")
	}
	if _, err := Run(db, "missing"); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestProfileQueryCount(t *testing.T) {
	// The module synthesizes multiple queries per column — verify it
	// actually goes through the engine rather than touching storage
	// directly (the macro-programming contract).
	db := engine.Open(2)
	buildMixedTable(t, db)
	queries := db.Metrics().Counter("engine_queries")
	before := queries.Value()
	if _, err := Run(db, "mixed"); err != nil {
		t.Fatal(err)
	}
	if got := queries.Value() - before; got < 5 {
		t.Fatalf("profile issued only %d queries", got)
	}
}
