package sql

import (
	"math"
	"strings"
	"testing"

	"madlib/internal/engine"
)

func TestPlanCacheReuseAndTiming(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (g bigint, v float);
		INSERT INTO t VALUES (1, 10), (1, 30), (2, 5)`)
	const q = `SELECT g, avg(v) FROM t GROUP BY g`
	r := mustQuery(t, s, q)
	if s.LastTiming().CacheHit {
		t.Fatal("first execution must not be a cache hit")
	}
	if len(r.Rows) != 2 || r.Rows[0][1] != 20.0 {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = mustQuery(t, s, q)
	tm := s.LastTiming()
	if !tm.CacheHit {
		t.Fatal("second execution should hit the plan cache")
	}
	if tm.Parse != 0 || tm.Plan != 0 {
		t.Fatalf("cached execution should have zero parse/plan time, got %+v", tm)
	}
	if len(r.Rows) != 2 || r.Rows[1][1] != 5.0 {
		t.Fatalf("cached rows = %v", r.Rows)
	}
	// Exec (not just Query) uses the cache too.
	rs := mustExec(t, s, q)
	if !s.LastTiming().CacheHit || len(rs[0].Rows) != 2 {
		t.Fatalf("Exec cache hit = %v", s.LastTiming())
	}
}

func TestPlanCacheSeesNewRows(t *testing.T) {
	// A cached plan must read current table contents, not a snapshot.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float); INSERT INTO t VALUES (1)`)
	const q = `SELECT sum(v) FROM t`
	if r := mustQuery(t, s, q); r.Rows[0][0] != 1.0 {
		t.Fatalf("sum = %v", r.Rows[0][0])
	}
	mustExec(t, s, `INSERT INTO t VALUES (41)`)
	if r := mustQuery(t, s, q); r.Rows[0][0] != 42.0 {
		t.Fatalf("sum after insert = %v", r.Rows[0][0])
	}
}

func TestPlanCacheInvalidationOnRecreate(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (g text, v float);
		INSERT INTO t VALUES ('a', 1), ('b', 2)`)
	const q = `SELECT count(*), sum(v) FROM t`
	if r := mustQuery(t, s, q); r.Rows[0][0] != int64(2) || r.Rows[0][1] != 3.0 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r := mustQuery(t, s, q); !s.LastTiming().CacheHit || r.Rows[0][0] != int64(2) {
		t.Fatal("expected cached execution")
	}
	// DROP + re-CREATE with a different schema: the cached plan is stale
	// and must not run (v is now the first column and a bigint).
	mustExec(t, s, `DROP TABLE t`)
	mustExec(t, s, `CREATE TABLE t (v bigint, w bigint);
		INSERT INTO t VALUES (10, 100), (20, 200), (30, 300)`)
	r := mustQuery(t, s, q)
	if s.LastTiming().CacheHit {
		t.Fatal("stale plan must not be reused after re-CREATE")
	}
	if r.Rows[0][0] != int64(3) || r.Rows[0][1] != int64(60) {
		t.Fatalf("post-recreate rows = %v", r.Rows)
	}
	// A dropped column in the new schema turns the query into an error,
	// not a stale execution.
	mustExec(t, s, `DROP TABLE t; CREATE TABLE t (w bigint)`)
	if _, err := s.Query(q); err == nil || !strings.Contains(err.Error(), "no such column") {
		t.Fatalf("stale column: %v", err)
	}
	// Dropping the table entirely errors cleanly.
	mustExec(t, s, `DROP TABLE t`)
	if _, err := s.Query(q); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("dropped table: %v", err)
	}
}

func TestPlanStalenessAcrossSessions(t *testing.T) {
	// DDL through a different session over the same engine must still be
	// caught: validity is checked against the catalog, not session state.
	db := engine.Open(2)
	s1, s2 := NewSession(db), NewSession(db)
	mustExec(t, s1, `CREATE TABLE t (v float); INSERT INTO t VALUES (1), (2)`)
	const q = `SELECT sum(v) FROM t`
	if r := mustQuery(t, s1, q); r.Rows[0][0] != 3.0 {
		t.Fatalf("sum = %v", r.Rows[0][0])
	}
	mustExec(t, s2, `DROP TABLE t; CREATE TABLE t (v float); INSERT INTO t VALUES (7)`)
	r := mustQuery(t, s1, q) // s1's cache was not invalidated, but revalidates
	if r.Rows[0][0] != 7.0 {
		t.Fatalf("cross-session sum = %v", r.Rows[0][0])
	}

	// The same holds for a join: s1's cached plan replans against the
	// re-created dims, and the engine keeps one materialization.
	mustExec(t, s1, `CREATE TABLE dims (k bigint, name text); INSERT INTO dims VALUES (7, 'old');
		CREATE TABLE f (k bigint); INSERT INTO f VALUES (7), (7)`)
	const fq = `SELECT dims.name, count(*) FROM f JOIN dims ON f.k = dims.k GROUP BY dims.name`
	if r := mustQuery(t, s1, fq); len(r.Rows) != 1 || r.Rows[0][0] != "old" {
		t.Fatalf("join rows = %v", r.Rows)
	}
	mustExec(t, s2, `DROP TABLE dims; CREATE TABLE dims (k bigint, name text); INSERT INTO dims VALUES (7, 'new')`)
	r = mustQuery(t, s1, fq)
	if s1.LastTiming().CacheHit || len(r.Rows) != 1 || r.Rows[0][0] != "new" || r.Rows[0][1] != int64(2) {
		t.Fatalf("cross-session join rows = %v (cache hit %v)", r.Rows, s1.LastTiming().CacheHit)
	}
	if n := db.JoinCacheLen(); n != 1 {
		t.Fatalf("join cache holds %d entries, want 1", n)
	}
}

func TestPrepareExecute(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (g text, v float);
		INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 10), ('b', 30)`)
	mustExec(t, s, `PREPARE by_g AS SELECT g, sum(v) FROM t WHERE v > $1 GROUP BY g ORDER BY g`)
	r := mustQuery(t, s, `EXECUTE by_g(0)`)
	if len(r.Rows) != 2 || r.Rows[0][1] != 4.0 || r.Rows[1][1] != 40.0 {
		t.Fatalf("execute rows = %v", r.Rows)
	}
	// Different parameter value, same plan.
	r = mustQuery(t, s, `EXECUTE by_g(5)`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "b" {
		t.Fatalf("execute(5) rows = %v", r.Rows)
	}
	if !s.LastTiming().CacheHit {
		t.Fatal("EXECUTE should reuse the prepared plan")
	}
	// Parameters thread into INSERT.
	mustExec(t, s, `PREPARE add_row AS INSERT INTO t VALUES ($1, $2)`)
	mustExec(t, s, `EXECUTE add_row('c', 99)`)
	r = mustQuery(t, s, `SELECT v FROM t WHERE g = 'c'`)
	if len(r.Rows) != 1 || r.Rows[0][0] != 99.0 {
		t.Fatalf("inserted via execute = %v", r.Rows)
	}
	// Listings.
	ps := s.PreparedStatements()
	if len(ps) != 2 || ps[0].Name != "add_row" || ps[0].NumParams != 2 ||
		ps[1].Name != "by_g" || ps[1].NumParams != 1 {
		t.Fatalf("prepared list = %+v", ps)
	}
	if !strings.Contains(ps[1].Text, "WHERE v > $1") {
		t.Fatalf("prepared text = %q", ps[1].Text)
	}
	// DEALLOCATE removes one; ALL removes the rest.
	mustExec(t, s, `DEALLOCATE by_g`)
	if _, err := s.Exec(`EXECUTE by_g(1)`); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("deallocated execute: %v", err)
	}
	mustExec(t, s, `DEALLOCATE ALL`)
	if len(s.PreparedStatements()) != 0 {
		t.Fatal("DEALLOCATE ALL left prepared statements behind")
	}
}

func TestPrepareExecuteErrors(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float); INSERT INTO t VALUES (1), (2)`)
	mustExec(t, s, `PREPARE p AS SELECT count(*) FROM t WHERE v > $1`)
	// Wrong arity, both directions.
	if _, err := s.Exec(`EXECUTE p`); err == nil ||
		!strings.Contains(err.Error(), "want 1, got 0") {
		t.Fatalf("zero args: %v", err)
	}
	if _, err := s.Exec(`EXECUTE p(1, 2)`); err == nil ||
		!strings.Contains(err.Error(), "want 1, got 2") {
		t.Fatalf("two args: %v", err)
	}
	// Wrong type surfaces as a clean comparison error.
	if _, err := s.Exec(`EXECUTE p('abc')`); err == nil ||
		!strings.Contains(err.Error(), "cannot compare") {
		t.Fatalf("type error: %v", err)
	}
	// Unknown name, duplicate PREPARE, bare $n outside PREPARE.
	if _, err := s.Exec(`EXECUTE nope(1)`); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("unknown prepared: %v", err)
	}
	if _, err := s.Exec(`PREPARE p AS SELECT 1`); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate prepare: %v", err)
	}
	if _, err := s.Exec(`SELECT v FROM t WHERE v > $1`); err == nil ||
		!strings.Contains(err.Error(), "PREPARE") {
		t.Fatalf("bare parameter: %v", err)
	}
	// PREPARE only covers SELECT/INSERT.
	if _, err := s.Exec(`PREPARE ddl AS DROP TABLE t`); err == nil ||
		!strings.Contains(err.Error(), "only SELECT and INSERT") {
		t.Fatalf("prepare DDL: %v", err)
	}
	// EXECUTE arguments must be constants.
	if _, err := s.Exec(`EXECUTE p(v)`); err == nil ||
		!strings.Contains(err.Error(), "parameter $1") {
		t.Fatalf("column ref argument: %v", err)
	}
}

func TestPrepareReplansAfterRecreate(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float); INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, s, `PREPARE cnt AS SELECT count(*) FROM t WHERE v > $1`)
	if r := mustQuery(t, s, `EXECUTE cnt(1)`); r.Rows[0][0] != int64(2) {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
	// Re-create with a compatible schema: the prepared statement replans
	// against the new table rather than reading the dropped one.
	mustExec(t, s, `DROP TABLE t; CREATE TABLE t (v float);
		INSERT INTO t VALUES (10), (20)`)
	if r := mustQuery(t, s, `EXECUTE cnt(0)`); r.Rows[0][0] != int64(2) {
		t.Fatalf("replanned count = %v", r.Rows[0][0])
	}
	// Re-create dropping the column: EXECUTE errors cleanly.
	mustExec(t, s, `DROP TABLE t; CREATE TABLE t (w bigint)`)
	if _, err := s.Exec(`EXECUTE cnt(0)`); err == nil ||
		!strings.Contains(err.Error(), "no such column") {
		t.Fatalf("stale prepared: %v", err)
	}
}

func TestScalarAggregateComputedArgs(t *testing.T) {
	// ROADMAP item: quantile/fmcount over computed expressions, the way
	// table-valued calls already stage them.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float, i bigint)`)
	tbl, _ := s.DB().Table("t")
	for k := 1; k <= 100; k++ {
		if err := tbl.Insert(float64(k), int64(k%10)); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, s, `SELECT madlib.quantile(v * 2, 0.5) FROM t`)
	if med := r.Rows[0][0].(float64); med < 100 || med > 102 {
		t.Fatalf("quantile(v*2) = %v", med)
	}
	// Composes with WHERE and GROUP BY like any aggregate.
	r = mustQuery(t, s, `SELECT i % 2, madlib.quantile(v + 0, 0.5) FROM t WHERE v <= 50 GROUP BY i`)
	if len(r.Rows) == 0 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Int columns feed quantile directly (regression: this used to read
	// the column through the wrong typed accessor).
	r = mustQuery(t, s, `SELECT madlib.quantile(i, 0.5) FROM t`)
	if q := r.Rows[0][0].(float64); q < 4 || q > 5 {
		t.Fatalf("quantile(int col) = %v", q)
	}
	r = mustQuery(t, s, `SELECT madlib.approx_quantile(sqrt(v), 0.05, 0.5) FROM t`)
	if q := r.Rows[0][0].(float64); math.Abs(q-math.Sqrt(50)) > 1.5 {
		t.Fatalf("approx_quantile(sqrt(v)) = %v", q)
	}
	// fmcount over an expression: v % 5 has 5 distinct values.
	r = mustQuery(t, s, `SELECT madlib.fmcount(i % 5) FROM t`)
	if n := r.Rows[0][0].(int64); n < 2 || n > 20 {
		t.Fatalf("fmcount(i %% 5) = %d", n)
	}
	// Runtime errors in the computed argument surface cleanly.
	if _, err := s.Exec(`SELECT madlib.quantile(v / (i - i), 0.5) FROM t`); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("computed arg error: %v", err)
	}
	// Non-numeric expressions are rejected at plan time.
	mustExec(t, s, `CREATE TABLE txt (s text); INSERT INTO txt VALUES ('a')`)
	if _, err := s.Exec(`SELECT madlib.quantile(s, 0.5) FROM txt`); err == nil {
		t.Fatal("quantile over text should fail")
	}
	// Parameters stay out of madlib arguments.
	if _, err := s.Exec(`PREPARE q AS SELECT madlib.quantile(v * $1, 0.5) FROM t`); err == nil ||
		!strings.Contains(err.Error(), "not allowed in madlib function arguments") {
		t.Fatalf("param in madlib arg: %v", err)
	}
}

func TestGroupByKeyKinds(t *testing.T) {
	// Grouping by each key kind (and composites) through the keyed path.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (i bigint, f float, b bool, s text, v double precision[]);
		INSERT INTO t VALUES
			(1, 1.5, true,  'x', {1,2}),
			(1, 1.5, true,  'x', {1,2}),
			(2, -0.0, false, 'y', {3}),
			(2, 0.0, false, 'y', {3})`)
	for _, tc := range []struct {
		q      string
		groups int
	}{
		{`SELECT i, count(*) FROM t GROUP BY i`, 2},
		{`SELECT f, count(*) FROM t GROUP BY f`, 2}, // -0.0 groups with 0.0
		{`SELECT b, count(*) FROM t GROUP BY b`, 2},
		{`SELECT s, count(*) FROM t GROUP BY s`, 2},
		{`SELECT v, count(*) FROM t GROUP BY v`, 2},
		{`SELECT i, s, count(*) FROM t GROUP BY i, s`, 2},
		{`SELECT i, f, b, s, count(*) FROM t GROUP BY i, f, b, s`, 2},
	} {
		r := mustQuery(t, s, tc.q)
		if len(r.Rows) != tc.groups {
			t.Errorf("%q: groups = %d (%v), want %d", tc.q, len(r.Rows), r.Rows, tc.groups)
			continue
		}
		for _, row := range r.Rows {
			if row[len(row)-1] != int64(2) {
				t.Errorf("%q: group size = %v, want 2", tc.q, row[len(row)-1])
			}
		}
	}
}

func TestSessionRunParsedStatement(t *testing.T) {
	// Run (no source text) still executes and reports timing without
	// caching.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (v float); INSERT INTO t VALUES (2)`)
	st, err := ParseStatement(`SELECT v * 3 FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(st)
	if err != nil || r.Rows[0][0] != 6.0 {
		t.Fatalf("run parsed = %v, %v", r, err)
	}
	if s.LastTiming().CacheHit {
		t.Fatal("Run should not report a cache hit")
	}
}
