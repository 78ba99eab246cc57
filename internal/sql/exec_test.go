package sql

import (
	"errors"
	"math"
	"strings"
	"testing"

	"madlib/internal/engine"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	return NewSession(engine.Open(4))
}

func mustExec(t *testing.T, s *Session, text string) []*Result {
	t.Helper()
	rs, err := s.Exec(text)
	if err != nil {
		t.Fatalf("exec %q: %v", text, err)
	}
	return rs
}

func mustQuery(t *testing.T, s *Session, text string) *Result {
	t.Helper()
	r, err := s.Query(text)
	if err != nil {
		t.Fatalf("query %q: %v", text, err)
	}
	return r
}

func TestExecCreateInsertDrop(t *testing.T) {
	s := newSession(t)
	rs := mustExec(t, s, `
		CREATE TABLE t (g text, v double precision, x double precision[]);
		INSERT INTO t VALUES ('a', 1, {1,2}), ('a', 2, {3,4}), ('b', 6, {5,6});
	`)
	if rs[0].Tag != "CREATE TABLE" || rs[1].Tag != "INSERT 0 3" {
		t.Fatalf("tags = %q, %q", rs[0].Tag, rs[1].Tag)
	}
	tbl, err := s.DB().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 3 {
		t.Fatalf("rows = %d", tbl.Count())
	}
	mustExec(t, s, `DROP TABLE t`)
	if _, err := s.DB().Table("t"); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("table not dropped: %v", err)
	}
	// IF EXISTS / IF NOT EXISTS are idempotent.
	mustExec(t, s, `DROP TABLE IF EXISTS t`)
	mustExec(t, s, `CREATE TABLE u (v float)`)
	mustExec(t, s, `CREATE TABLE IF NOT EXISTS u (v float)`)
	if _, err := s.Exec(`CREATE TABLE u (v float)`); !errors.Is(err, engine.ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestExecInsertColumnOrderAndCoercion(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (a bigint, b float, c bool)`)
	mustExec(t, s, `INSERT INTO t (c, a, b) VALUES (true, 7, 2)`)
	r := mustQuery(t, s, `SELECT a, b, c FROM t`)
	row := r.Rows[0]
	if row[0] != int64(7) || row[1] != 2.0 || row[2] != true {
		t.Fatalf("row = %#v", row)
	}
	// Missing columns are an error: the engine has no defaults.
	if _, err := s.Exec(`INSERT INTO t (a) VALUES (1)`); err == nil {
		t.Fatal("partial column list should fail")
	}
	// Type mismatch.
	if _, err := s.Exec(`INSERT INTO t VALUES ('x', 1, true)`); !errors.Is(err, engine.ErrType) {
		t.Fatalf("type mismatch: %v", err)
	}
	// Wrong arity.
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 2)`); !errors.Is(err, engine.ErrArity) {
		t.Fatalf("arity: %v", err)
	}
}

func TestExecScanWhereOrderLimit(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (name text, v float);
		INSERT INTO t VALUES ('d', 4), ('a', 1), ('c', 3), ('b', 2);
	`)
	r := mustQuery(t, s, `SELECT name, v * 10 AS v10 FROM t WHERE v >= 2 ORDER BY v DESC LIMIT 2`)
	if len(r.Cols) != 2 || r.Cols[0] != "name" || r.Cols[1] != "v10" {
		t.Fatalf("cols = %v", r.Cols)
	}
	if len(r.Rows) != 2 || r.Rows[0][0] != "d" || r.Rows[1][0] != "c" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][1] != 40.0 {
		t.Fatalf("computed col = %v", r.Rows[0][1])
	}
	// ORDER BY a non-projected column, ascending.
	r = mustQuery(t, s, `SELECT name FROM t ORDER BY v`)
	if r.Rows[0][0] != "a" || r.Rows[3][0] != "d" {
		t.Fatalf("order by hidden col: %v", r.Rows)
	}
	// Ordinal ORDER BY.
	r = mustQuery(t, s, `SELECT name FROM t ORDER BY 1 DESC`)
	if r.Rows[0][0] != "d" {
		t.Fatalf("ordinal order: %v", r.Rows)
	}
}

func TestExecStarAndArithmetic(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (a bigint, b bigint);
		INSERT INTO t VALUES (7, 2);
	`)
	r := mustQuery(t, s, `SELECT *, a / b, a % b, a + b * 2 FROM t`)
	row := r.Rows[0]
	if row[0] != int64(7) || row[1] != int64(2) {
		t.Fatalf("star expansion = %v", row)
	}
	if row[2] != int64(3) || row[3] != int64(1) || row[4] != int64(11) {
		t.Fatalf("int arithmetic = %v", row)
	}
	r = mustQuery(t, s, `SELECT 1 + 2.5, sqrt(16), abs(-3)`)
	if r.Rows[0][0] != 3.5 || r.Rows[0][1] != 4.0 || r.Rows[0][2] != int64(3) {
		t.Fatalf("const exprs = %v", r.Rows[0])
	}
}

func TestExecAggregatesWholeTable(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (v float);
		INSERT INTO t VALUES (1), (2), (3), (4);
	`)
	r := mustQuery(t, s, `SELECT count(*), sum(v), avg(v), min(v), max(v) FROM t`)
	row := r.Rows[0]
	if row[0] != int64(4) || row[1] != 10.0 || row[2] != 2.5 || row[3] != 1.0 || row[4] != 4.0 {
		t.Fatalf("aggregates = %v", row)
	}
	// Aggregate of an expression, and expression over an aggregate.
	r = mustQuery(t, s, `SELECT avg(v * 2) + 1 FROM t`)
	if r.Rows[0][0] != 6.0 {
		t.Fatalf("avg(v*2)+1 = %v", r.Rows[0][0])
	}
	// WHERE before aggregation.
	r = mustQuery(t, s, `SELECT count(*) FROM t WHERE v > 2`)
	if r.Rows[0][0] != int64(2) {
		t.Fatalf("filtered count = %v", r.Rows[0][0])
	}
	// variance/stddev.
	r = mustQuery(t, s, `SELECT variance(v), stddev(v) FROM t`)
	wantVar := 5.0 / 3.0
	if math.Abs(r.Rows[0][0].(float64)-wantVar) > 1e-12 {
		t.Fatalf("variance = %v", r.Rows[0][0])
	}
	if math.Abs(r.Rows[0][1].(float64)-math.Sqrt(wantVar)) > 1e-12 {
		t.Fatalf("stddev = %v", r.Rows[0][1])
	}
}

func TestExecGroupBy(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (g text, v float);
		INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 10), ('b', 30), ('c', 5);
	`)
	r := mustQuery(t, s, `SELECT g, avg(v), count(*) FROM t GROUP BY g`)
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %v", r.Rows)
	}
	// Default order: sorted by group key.
	want := map[string]float64{"a": 2, "b": 20, "c": 5}
	for _, row := range r.Rows {
		g := row[0].(string)
		if row[1] != want[g] {
			t.Fatalf("group %q avg = %v, want %v", g, row[1], want[g])
		}
	}
	if r.Rows[0][0] != "a" || r.Rows[2][0] != "c" {
		t.Fatalf("group order = %v", r.Rows)
	}
	// WHERE removes groups entirely when all their rows are filtered.
	r = mustQuery(t, s, `SELECT g, count(*) FROM t WHERE v >= 10 GROUP BY g`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "b" || r.Rows[0][1] != int64(2) {
		t.Fatalf("filtered groups = %v", r.Rows)
	}
	// ORDER BY an aggregate, descending.
	r = mustQuery(t, s, `SELECT g FROM t GROUP BY g ORDER BY sum(v) DESC`)
	if r.Rows[0][0] != "b" || r.Rows[2][0] != "a" {
		t.Fatalf("order by sum = %v", r.Rows)
	}
	// Ungrouped bare column is rejected.
	if _, err := s.Exec(`SELECT v FROM t GROUP BY g`); err == nil ||
		!strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("ungrouped column: %v", err)
	}
	// Nested aggregates are rejected.
	if _, err := s.Exec(`SELECT sum(avg(v)) FROM t`); err == nil {
		t.Fatal("nested aggregate should fail")
	}
	// count(expr) evaluates its argument: runtime errors surface.
	if _, err := s.Exec(`SELECT count(v / 0) FROM t`); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("count of erroring expr: %v", err)
	}
	// Aggregates in WHERE are rejected.
	if _, err := s.Exec(`SELECT g FROM t WHERE avg(v) > 1 GROUP BY g`); err == nil {
		t.Fatal("aggregate in WHERE should fail")
	}
}

func TestExecOrderByAliasOfAggregate(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (g text, v float);
		INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 10), ('b', 30), ('c', 5);
	`)
	// ORDER BY an alias of an aggregate item, not the aggregate itself.
	r := mustQuery(t, s, `SELECT g, sum(v) AS total FROM t GROUP BY g ORDER BY total DESC`)
	if r.Rows[0][0] != "b" || r.Rows[1][0] != "c" || r.Rows[2][0] != "a" {
		t.Fatalf("order by alias = %v", r.Rows)
	}
	// Same without GROUP BY (single-group aggregate query).
	r = mustQuery(t, s, `SELECT sum(v) AS total FROM t ORDER BY total`)
	if r.Rows[0][0] != 49.0 {
		t.Fatalf("aliased whole-table sum = %v", r.Rows)
	}
}

func TestExecOrderByOrdinalOutOfRange(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (g text, v float); INSERT INTO t VALUES ('a', 1)`)
	for _, q := range []string{
		`SELECT g FROM t ORDER BY 5`,
		`SELECT g, count(*) FROM t GROUP BY g ORDER BY 3`,
		`SELECT 1 ORDER BY 2`,
	} {
		if _, err := s.Exec(q); err == nil ||
			!strings.Contains(err.Error(), "not in select list") {
			t.Fatalf("%q: %v", q, err)
		}
	}
}

func TestExecConstSelectLimit(t *testing.T) {
	s := newSession(t)
	r := mustQuery(t, s, `SELECT 1 LIMIT 0`)
	if len(r.Rows) != 0 || r.Tag != "SELECT 0" {
		t.Fatalf("LIMIT 0 = %v tag=%q", r.Rows, r.Tag)
	}
	r = mustQuery(t, s, `SELECT 1 AS one ORDER BY one LIMIT 5`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestExecGroupByMultiKey(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (a text, b bigint, v float);
		INSERT INTO t VALUES ('x', 1, 2), ('x', 1, 4), ('x', 2, 6), ('y', 1, 8);
	`)
	r := mustQuery(t, s, `SELECT a, b, sum(v) FROM t GROUP BY a, b`)
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %v", r.Rows)
	}
	if r.Rows[0][0] != "x" || r.Rows[0][1] != int64(1) || r.Rows[0][2] != 6.0 {
		t.Fatalf("first group = %v", r.Rows[0])
	}
}

func TestExecAggEmptyTable(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float)`)
	r := mustQuery(t, s, `SELECT count(*), sum(v), avg(v) FROM t`)
	row := r.Rows[0]
	if row[0] != int64(0) || row[1] != nil || row[2] != nil {
		t.Fatalf("empty aggregates = %#v", row)
	}
}

func TestExecVectorColumns(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (x double precision[]);
		INSERT INTO t VALUES ({1, 2, 3}), (ARRAY[4, 5, 6]);
	`)
	r := mustQuery(t, s, `SELECT length(x), array_get(x, 2) FROM t ORDER BY 2`)
	if r.Rows[0][0] != int64(3) || r.Rows[0][1] != 2.0 || r.Rows[1][1] != 5.0 {
		t.Fatalf("vector rows = %v", r.Rows)
	}
}

func TestExecErrors(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float); INSERT INTO t VALUES (1)`)
	if _, err := s.Exec(`SELECT * FROM missing`); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := s.Exec(`SELECT nope FROM t`); !errors.Is(err, engine.ErrNoColumn) {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := s.Exec(`SELECT v FROM t WHERE v`); err == nil ||
		!strings.Contains(err.Error(), "boolean") {
		t.Fatalf("non-boolean WHERE: %v", err)
	}
	if _, err := s.Exec(`SELECT frobnicate(v) FROM t`); err == nil ||
		!strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("unknown function: %v", err)
	}
	if _, err := s.Exec(`SELECT (avg(v)).* FROM t`); err == nil ||
		!strings.Contains(err.Error(), "composite expansion") {
		t.Fatalf(".* on non-madlib expr: %v", err)
	}
	// Note: Query still executes the statement before noticing it has no
	// rowset, so this drop takes effect.
	if _, err := s.Query(`DROP TABLE t`); !errors.Is(err, ErrNoRows) {
		t.Fatalf("Query on DDL: %v", err)
	}
}

func TestExecFromlessSelect(t *testing.T) {
	s := newSession(t)
	r := mustQuery(t, s, `SELECT 2 + 3 AS five, 'hi', true`)
	if r.Cols[0] != "five" || r.Rows[0][0] != int64(5) || r.Rows[0][1] != "hi" || r.Rows[0][2] != true {
		t.Fatalf("fromless = %v %v", r.Cols, r.Rows)
	}
}

func TestExecMadlibLinregr(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE data (y float, x double precision[])`)
	// y = 2 + 3·x exactly: coefficients must be recovered exactly.
	tbl, _ := s.DB().Table("data")
	for i := 0; i < 40; i++ {
		x := float64(i)
		if err := tbl.Insert(2+3*x, []float64{1, x}); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, s, `SELECT (madlib.linregr(y, x)).* FROM data`)
	if r.Cols[0] != "coef" || r.Cols[1] != "r2" {
		t.Fatalf("cols = %v", r.Cols)
	}
	coef := r.Rows[0][0].([]float64)
	if math.Abs(coef[0]-2) > 1e-9 || math.Abs(coef[1]-3) > 1e-9 {
		t.Fatalf("coef = %v", coef)
	}
	if r2 := r.Rows[0][1].(float64); math.Abs(r2-1) > 1e-12 {
		t.Fatalf("r2 = %v", r2)
	}
	// WHERE stages a filtered table: restrict to x < 20 and refit.
	r = mustQuery(t, s, `SELECT (madlib.linregr(y, x)).* FROM data WHERE array_get(x, 2) < 20`)
	coef = r.Rows[0][0].([]float64)
	if math.Abs(coef[1]-3) > 1e-9 {
		t.Fatalf("filtered coef = %v", coef)
	}
	// The staging table must not leak into the catalog.
	for _, name := range s.DB().TableNames() {
		if strings.HasPrefix(name, "sql_stage") {
			t.Fatalf("staging table leaked: %v", s.DB().TableNames())
		}
	}
}

func TestExecMadlibComputedArgs(t *testing.T) {
	// Scalar columns can be assembled into a vector argument in the call
	// itself — the paper's linregr(y, array[1, x1, x2]) idiom.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE d (y float, x1 float, x2 float)`)
	tbl, _ := s.DB().Table("d")
	for i := 0; i < 30; i++ {
		a, b := float64(i), float64(i%7)
		if err := tbl.Insert(5+2*a-3*b, a, b); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, s, `SELECT (madlib.linregr(y, array[1, x1, x2])).* FROM d`)
	coef := r.Rows[0][0].([]float64)
	if math.Abs(coef[0]-5) > 1e-8 || math.Abs(coef[1]-2) > 1e-8 || math.Abs(coef[2]+3) > 1e-8 {
		t.Fatalf("coef = %v", coef)
	}
	// Computed args combine with WHERE (single staging pass).
	r = mustQuery(t, s, `SELECT (madlib.linregr(y, {1, x1, x2})).* FROM d WHERE x1 < 20`)
	coef = r.Rows[0][0].([]float64)
	if math.Abs(coef[1]-2) > 1e-8 {
		t.Fatalf("filtered coef = %v", coef)
	}
	for _, name := range s.DB().TableNames() {
		if strings.HasPrefix(name, "sql_stage") {
			t.Fatalf("staging table leaked: %v", s.DB().TableNames())
		}
	}
}

// TestExplainTableValuedInput pins how EXPLAIN renders a table-valued
// call's input: the source's own lines when the method reads it as it
// stands, the staged scan's plan (lane and filter included) otherwise.
func TestExplainTableValuedInput(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE d (g bigint, y float, x1 float, x double precision[]);
		INSERT INTO d VALUES (1, 9, 1, {1, 1}), (2, 12, 2, {1, 2});
		CREATE TABLE e (g bigint, w float); INSERT INTO e VALUES (1, 0.5)`)
	for q, want := range map[string][]string{
		`SELECT (madlib.linregr(y, x)).* FROM d`: {
			"  Seq Scan on d (4 segments, 2 rows)", "    execution: sequential"},
		`SELECT (madlib.linregr(y, x)).* FROM d WHERE g = 1`: {
			"  Seq Scan on d (4 segments, 2 rows)", "    lane: batch (vectorized filter + columnar projection)", "    filter: (g = 1)"},
		`SELECT (madlib.linregr(y, array[1, x1])).* FROM d`: {"    lane: batch (columnar projection)"},
		`SELECT (madlib.profile()).* FROM d JOIN e ON d.g = e.g`: {
			"  Hash Join (d.g = e.g)", "    join cache: miss (build + probe at execution)"},
		`SELECT (madlib.profile()).* FROM madlib_stats_tables`: {"  System View madlib_stats_tables"},
	} {
		r := mustQuery(t, s, "EXPLAIN "+q)
		var lines []string
		for _, row := range r.Rows {
			lines = append(lines, row[0].(string))
		}
		plan := strings.Join(lines, "\n")
		if !strings.HasPrefix(plan, "Function Scan on madlib.") {
			t.Fatalf("%s:\n%s", q, plan)
		}
		for _, w := range want {
			if !strings.Contains(plan, "\n"+w) {
				t.Fatalf("%s: no line %q in\n%s", q, w, plan)
			}
		}
	}
}

func TestExecMadlibKMeans(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE points (coords double precision[])`)
	tbl, _ := s.DB().Table("points")
	// Two well-separated clusters around (0,0) and (100,100).
	for i := 0; i < 20; i++ {
		d := float64(i%5) * 0.1
		if err := tbl.Insert([]float64{d, d}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert([]float64{100 + d, 100 + d}); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, s, `SELECT madlib.kmeans(coords, 2, 7).* FROM points ORDER BY centroid_id`)
	if len(r.Rows) != 2 {
		t.Fatalf("centroids = %v", r.Rows)
	}
	var lo, hi []float64
	for _, row := range r.Rows {
		c := row[1].([]float64)
		if row[2] != int64(20) {
			t.Fatalf("cluster size = %v", row[2])
		}
		if c[0] < 50 {
			lo = c
		} else {
			hi = c
		}
	}
	if lo == nil || hi == nil || math.Abs(lo[0]-0.2) > 0.01 || math.Abs(hi[0]-100.2) > 0.01 {
		t.Fatalf("centroids lo=%v hi=%v", lo, hi)
	}
}

func TestExecMadlibScalarAggregates(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (g text, v float)`)
	tbl, _ := s.DB().Table("t")
	for i := 1; i <= 100; i++ {
		g := "a"
		if i%2 == 0 {
			g = "b"
		}
		if err := tbl.Insert(g, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// madlib.quantile is an aggregate: composes with the SELECT list.
	r := mustQuery(t, s, `SELECT madlib.quantile(v, 0.5), count(*) FROM t`)
	med := r.Rows[0][0].(float64)
	if med < 50 || med > 51 {
		t.Fatalf("median = %v", med)
	}
	if r.Rows[0][1] != int64(100) {
		t.Fatalf("count = %v", r.Rows[0][1])
	}
	// ... and with GROUP BY (odd numbers in a, even in b).
	r = mustQuery(t, s, `SELECT g, madlib.quantile(v, 0.5) FROM t GROUP BY g ORDER BY g`)
	if len(r.Rows) != 2 {
		t.Fatalf("groups = %v", r.Rows)
	}
	if a := r.Rows[0][1].(float64); a < 49 || a > 51 {
		t.Fatalf("group a median = %v", a)
	}
	// fmcount approximates distinct count within sketch error.
	r = mustQuery(t, s, `SELECT madlib.fmcount(v) FROM t`)
	n := r.Rows[0][0].(int64)
	if n < 50 || n > 200 {
		t.Fatalf("fmcount = %d", n)
	}
	// Unqualified call resolves through the registry too.
	r = mustQuery(t, s, `SELECT quantile(v, 0.25) FROM t`)
	if q := r.Rows[0][0].(float64); q < 25 || q > 26 {
		t.Fatalf("q25 = %v", q)
	}
}

func TestExecMadlibSVMAndBayes(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE d (y float, x double precision[])`)
	tbl, _ := s.DB().Table("d")
	for i := 0; i < 50; i++ {
		f := float64(i) / 50
		if err := tbl.Insert(1.0, []float64{1, 2 + f}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(-1.0, []float64{1, -2 - f}); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, s, `SELECT (madlib.svm(y, x)).* FROM d`)
	if r.Cols[0] != "weights" || r.Rows[0][2] != int64(100) {
		t.Fatalf("svm result = %v %v", r.Cols, r.Rows)
	}
	w := r.Rows[0][0].([]float64)
	if w[1] <= 0 {
		t.Fatalf("separating weight = %v", w)
	}

	mustExec(t, s, `CREATE TABLE nb (class text, attrs double precision[])`)
	nb, _ := s.DB().Table("nb")
	for i := 0; i < 30; i++ {
		class, a := "yes", 1.0
		if i%3 == 0 {
			class, a = "no", 0.0
		}
		if err := nb.Insert(class, []float64{a}); err != nil {
			t.Fatal(err)
		}
	}
	r = mustQuery(t, s, `SELECT (madlib.naive_bayes(class, attrs)).* FROM nb ORDER BY class`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "no" || r.Rows[1][0] != "yes" {
		t.Fatalf("bayes classes = %v", r.Rows)
	}
	if p := r.Rows[0][1].(float64); math.Abs(p-1.0/3.0) > 1e-12 {
		t.Fatalf("prior(no) = %v", p)
	}
}

func TestExecMadlibCallRestrictions(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE d (y float, x double precision[]); INSERT INTO d VALUES (1, {1,2})`)
	if _, err := s.Exec(`SELECT madlib.linregr(y, x), count(*) FROM d`); err == nil {
		t.Fatal("table-valued call with siblings should fail")
	}
	if _, err := s.Exec(`SELECT madlib.linregr(y, x) FROM d GROUP BY y`); err == nil {
		t.Fatal("table-valued call with GROUP BY should fail")
	}
	if _, err := s.Exec(`SELECT madlib.nosuch(y) FROM d`); err == nil {
		t.Fatal("unknown madlib function should fail")
	}
	if _, err := s.Exec(`SELECT madlib.linregr(y) FROM d`); err == nil ||
		!strings.Contains(err.Error(), "argument") {
		t.Fatalf("wrong arity: %v", err)
	}
	if _, err := s.Exec(`SELECT madlib.linregr(x, y) FROM d`); err == nil {
		t.Fatal("wrong column kinds should fail")
	}
}

func TestResultFormat(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE t (name text, v float, ok bool);
		INSERT INTO t VALUES ('aa', 1.5, true), ('b', 20, false);
	`)
	r := mustQuery(t, s, `SELECT * FROM t ORDER BY name`)
	got := r.Format()
	want := "" +
		" name | v   | ok\n" +
		"------+-----+----\n" +
		" aa   | 1.5 | t\n" +
		" b    |  20 | f\n" +
		"(2 rows)\n"
	if got != want {
		t.Fatalf("Format:\n%s\nwant:\n%s", got, want)
	}
	ddl := &Result{Tag: "CREATE TABLE"}
	if ddl.Format() != "CREATE TABLE\n" {
		t.Fatalf("ddl format = %q", ddl.Format())
	}
}

func TestSessionParallelismMatchesEngine(t *testing.T) {
	// The SQL layer must run through the engine's parallel executor: a
	// grouped aggregate over N segments should touch every row once.
	db := engine.Open(8)
	s := NewSession(db)
	mustExec(t, s, `CREATE TABLE t (g bigint, v float)`)
	tbl, _ := db.Table("t")
	const rows = 1000
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i%10), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := db.RowsScanned()
	r := mustQuery(t, s, `SELECT g, count(*) FROM t GROUP BY g`)
	if len(r.Rows) != 10 {
		t.Fatalf("groups = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1] != int64(100) {
			t.Fatalf("group count = %v", row[1])
		}
	}
	if scanned := db.RowsScanned() - before; scanned != rows {
		t.Fatalf("rows scanned = %d, want %d", scanned, rows)
	}
}
