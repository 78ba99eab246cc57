package sql

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"madlib/internal/engine"
)

// Differential harness: every generated query runs through two sessions
// over the same database — one lowering each consumer to its native
// batch kernel where it has one, one in oracle mode
// (SetBatchExecution(false): every consumer lowered to its row closure)
// — and the results (rows, column names, tags, error text) must be
// identical. Both run the same executors, so the comparison is kernels
// against closures; the generator is seeded, so failures reproduce.

// newDiffDB loads a mixed-type table exercising the edge values the
// kernels must agree on: zeros (division), negative zero and negatives
// (float compare/keying), int64 extremes (overflow wraparound), repeated
// group keys, and a Vector column that forces row-lane fallback.
func newDiffDB(t testing.TB, rows int) *engine.DB {
	t.Helper()
	db := engine.Open(3)
	tbl, err := db.CreateTable("d", engine.Schema{
		{Name: "g", Kind: engine.Int},
		{Name: "i", Kind: engine.Int},
		{Name: "f", Kind: engine.Float},
		{Name: "s", Kind: engine.String},
		{Name: "b", Kind: engine.Bool},
		{Name: "v", Kind: engine.Vector},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < rows; r++ {
		var i int64
		switch rng.Intn(10) {
		case 0:
			i = 0
		case 1:
			i = math.MaxInt64
		case 2:
			i = math.MinInt64
		default:
			i = int64(rng.Intn(2001) - 1000)
		}
		var f float64
		switch rng.Intn(10) {
		case 0:
			f = 0
		case 1:
			f = math.Copysign(0, -1)
		default:
			f = float64(rng.Intn(4001)-2000) / 8
		}
		err := tbl.Insert(
			int64(r%7), i, f,
			fmt.Sprintf("s%d", rng.Intn(9)),
			rng.Intn(2) == 0,
			[]float64{float64(r % 3)},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// exprGen builds random batch-shaped expressions over the diff table.
type exprGen struct{ rng *rand.Rand }

func (g *exprGen) numExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			return "i"
		case 1:
			return "f"
		case 2:
			return "g"
		case 3:
			return fmt.Sprintf("%d", g.rng.Intn(7)-3) // includes 0
		case 4:
			return fmt.Sprintf("%g", float64(g.rng.Intn(13)-6)/4) // includes 0
		default:
			return "g"
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(- %s)", g.numExpr(depth-1))
	case 1:
		return fmt.Sprintf("abs(%s)", g.numExpr(depth-1))
	case 2:
		return fmt.Sprintf("floor(%s)", g.numExpr(depth-1))
	default:
		ops := []string{"+", "-", "*", "/", "%"}
		op := ops[g.rng.Intn(len(ops))]
		return fmt.Sprintf("(%s %s %s)", g.numExpr(depth-1), op, g.numExpr(depth-1))
	}
}

func (g *exprGen) boolExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return "b"
		case 1:
			return fmt.Sprintf("s %s 's%d'", g.cmpOp(), g.rng.Intn(9))
		default:
			return fmt.Sprintf("%s %s %s", g.numExpr(1), g.cmpOp(), g.numExpr(1))
		}
	}
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("NOT (%s)", g.boolExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s AND %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s OR %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("%s %s %s", g.numExpr(2), g.cmpOp(), g.numExpr(2))
	}
}

func (g *exprGen) cmpOp() string {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	return ops[g.rng.Intn(len(ops))]
}

func (g *exprGen) aggExpr() string {
	switch g.rng.Intn(8) {
	case 0:
		return "count(*)"
	case 1:
		return fmt.Sprintf("count(%s)", g.numExpr(2))
	case 2:
		return fmt.Sprintf("min(%s)", g.numExpr(2))
	case 3:
		return fmt.Sprintf("max(%s)", g.numExpr(2))
	case 4:
		return fmt.Sprintf("avg(%s)", g.numExpr(2))
	case 5:
		return fmt.Sprintf("variance(%s)", g.numExpr(2))
	case 6:
		return fmt.Sprintf("stddev(%s)", g.numExpr(2))
	default:
		return fmt.Sprintf("sum(%s)", g.numExpr(2))
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// nativeLane reports whether the session lowers at least one consumer of
// the query to a native batch kernel (EXPLAIN's lane line is not "row").
func nativeLane(t *testing.T, sess *Session, query string) bool {
	t.Helper()
	pl, err := sess.planStmt(mustParseStmt(t, query))
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	return planLane(pl) != "row"
}

func mustParseStmt(t *testing.T, query string) Statement {
	t.Helper()
	st, err := ParseStatement(query)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func formatResult(res *Result) string {
	if res == nil {
		return "<nil>"
	}
	return res.Format()
}

// runDiffQuery executes one query in both modes and fails on any
// divergence. It returns whether the batch session lowered an aggregate
// query natively (so callers can require coverage).
func runDiffQuery(t *testing.T, batchSess, rowSess *Session, query string) bool {
	t.Helper()
	bRes, bErr := batchSess.Query(query)
	rRes, rErr := rowSess.Query(query)
	if errText(bErr) != errText(rErr) {
		t.Fatalf("query %q:\n  batch err: %v\n  row err:   %v", query, bErr, rErr)
	}
	if bErr != nil {
		return false
	}
	bs, rs := formatResult(bRes), formatResult(rRes)
	if bs != rs {
		t.Fatalf("query %q:\n--- batch lane ---\n%s\n--- row lane ---\n%s", query, bs, rs)
	}
	st, err := ParseStatement(query)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := batchSess.planStmt(st)
	if err != nil {
		return false
	}
	_, ok := pl.(*aggPlan)
	return ok && planLane(pl) != "row"
}

func TestBatchLaneDifferential(t *testing.T) {
	for _, rows := range []int{229, 5000} { // 5000 rows crosses batch boundaries per segment
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			db := newDiffDB(t, rows)
			batchSess := NewSession(db)
			rowSess := NewSession(db)
			rowSess.SetBatchExecution(false)
			g := &exprGen{rng: rand.New(rand.NewSource(42))}
			groupCols := []string{"", "g", "s", "b", "f", "g, s"}
			batchPlanned := 0
			const n = 300
			for q := 0; q < n; q++ {
				var sb strings.Builder
				sb.WriteString("SELECT ")
				aggs := 1 + g.rng.Intn(3)
				group := groupCols[g.rng.Intn(len(groupCols))]
				var items []string
				if group != "" {
					items = append(items, strings.Split(group, ", ")...)
				}
				for a := 0; a < aggs; a++ {
					items = append(items, g.aggExpr())
				}
				sb.WriteString(strings.Join(items, ", "))
				sb.WriteString(" FROM d")
				if g.rng.Intn(3) > 0 {
					sb.WriteString(" WHERE " + g.boolExpr(3))
				}
				if group != "" {
					sb.WriteString(" GROUP BY " + group)
				}
				if runDiffQuery(t, batchSess, rowSess, sb.String()) {
					batchPlanned++
				}
			}
			// The generator only emits batch-shaped queries; if most of
			// them fell back, the lane selection itself is broken.
			if batchPlanned < n/2 {
				t.Fatalf("only %d/%d generated queries planned the batch lane", batchPlanned, n)
			}
		})
	}
}

// TestBatchLaneDifferentialEdges pins the named edge cases: guarded and
// unguarded division by zero, modulo by zero, int64 overflow wraparound,
// negative-zero grouping, and scan filtering.
func TestBatchLaneDifferentialEdges(t *testing.T) {
	db := newDiffDB(t, 500)
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	queries := []string{
		// Division/modulo by zero from column data (i is 0 on some rows).
		`SELECT sum(10 / i) FROM d`,
		`SELECT sum(10 % i) FROM d`,
		`SELECT sum(10.5 / f) FROM d`,
		`SELECT sum(f % 0) FROM d`,
		`SELECT g, sum(1 / i) FROM d GROUP BY g`,
		// Constant division by zero only errors when a row is selected.
		`SELECT sum(1 / 0) FROM d WHERE f > 1e18`,
		`SELECT sum(1 / 0) FROM d WHERE f > -1e18`,
		// AND/OR short-circuiting guards the faulting side per row.
		`SELECT count(*) FROM d WHERE i <> 0 AND 100 / i > 2`,
		`SELECT count(*) FROM d WHERE i = 0 OR 100 / i > 2`,
		`SELECT sum(f) FROM d WHERE NOT (i <> 0 AND 100 / i > 2)`,
		// Int64 overflow wraps identically on both lanes.
		`SELECT sum(i * i), min(i + i), max(i - 1 + i) FROM d`,
		`SELECT sum(i + i) FROM d WHERE i > 9223372036854775806`,
		// -0 and +0 group together; float keys survive both lanes.
		`SELECT f, count(*) FROM d WHERE f = 0 GROUP BY f`,
		// String compares and bool columns in predicates.
		`SELECT min(i), max(f) FROM d WHERE s >= 's3' AND b`,
		`SELECT s, stddev(f), variance(i) FROM d WHERE s <> 's0' GROUP BY s`,
		// Composite group keys.
		`SELECT g, b, avg(f), count(*) FROM d GROUP BY g, b`,
		// Scalar functions inside aggregate args and predicates.
		`SELECT sum(abs(i % 97)), avg(sqrt(abs(f))) FROM d WHERE floor(f) <= 10`,
		`SELECT max(pow(abs(f), 0.5)) FROM d WHERE exp(0) = 1`,
		// Empty result sets.
		`SELECT sum(i), count(*) FROM d WHERE f > 1e18`,
		`SELECT g, sum(i) FROM d WHERE f > 1e18 GROUP BY g`,
		// Projection scans with a vectorized filter.
		`SELECT i, f, s FROM d WHERE f > 10 AND i % 2 = 0 ORDER BY i, s LIMIT 50`,
		`SELECT i + 1, f * 2 FROM d WHERE NOT b ORDER BY 1 DESC LIMIT 20`,
	}
	for _, q := range queries {
		runDiffQuery(t, batchSess, rowSess, q)
	}
}

// TestAggregateErrorOrderAgrees pins which error a statement reports
// when its consumers fail with different texts: the WHERE clause first,
// then the aggregate slots in SELECT order, each over a whole batch. A
// row-closure argument (array_get over a Vector column) aborts the scan
// like a native one (1 / (i - 10) fails on one row), so both modes agree.
func TestAggregateErrorOrderAgrees(t *testing.T) {
	var rows [][2]int64
	for g := int64(0); g < 16; g++ {
		rows = append(rows, [2]int64{g, 4 + g})
	}
	db := newArrayGetDB(t, 3, rows)
	const arrayGet, divZero = "sql: array_get: index 4 out of range 1..3", "sql: division by zero"
	for _, tc := range []struct{ query, want string }{
		{`SELECT sum(array_get(v, i)), sum(1 / (i - 10)) FROM t`, arrayGet},
		{`SELECT sum(1 / (i - 10)), sum(array_get(v, i)) FROM t`, divZero},
		{`SELECT g, sum(array_get(v, i)), sum(1 / (i - 10)) FROM t GROUP BY g`, arrayGet},
		{`SELECT sum(array_get(v, i)) FROM t WHERE 1 / (i - 10) > 0`, divZero},
	} {
		requireOneError(t, db, tc.query, tc.want, 1)
	}
}

// TestBatchLaneFallback runs the aggregate shapes with no native lowering
// — their argument lanes come from row closures inside the batch
// executor — and pins which of them still report the row lane (no
// consumer native).
func TestBatchLaneFallback(t *testing.T) {
	db := newDiffDB(t, 200)
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	fallbacks := []struct {
		query  string
		native bool
	}{
		// Vector column in an aggregate argument.
		{`SELECT count(array_get(v, 1)) FROM d`, false},
		// Vector-valued group key: generic key fill, native count(*).
		{`SELECT v, count(*) FROM d GROUP BY v`, true},
		// min/max over bool stays boxed.
		{`SELECT min(b), max(b) FROM d`, false},
	}
	for _, f := range fallbacks {
		if got := nativeLane(t, batchSess, f.query); got != f.native {
			t.Fatalf("query %q: native lane = %v, want %v", f.query, got, f.native)
		}
		runDiffQuery(t, batchSess, rowSess, f.query)
	}
	// Text min/max lower natively; madlib scalar aggregates fold rows
	// beside a vectorized WHERE. Both modes must still agree.
	promoted := []string{
		`SELECT min(s), max(s) FROM d`,
		`SELECT g, min(s) FROM d WHERE f > 0 GROUP BY g`,
		`SELECT madlib.quantile(f, 0.25), count(*), min(s) FROM d WHERE i <> 0`,
	}
	runDiffQuery(t, batchSess, rowSess, `SELECT madlib.fmcount(s) FROM d`)
	runDiffQuery(t, batchSess, rowSess, `SELECT g, madlib.quantile(f, 0.5) FROM d GROUP BY g`)
	for _, q := range promoted {
		if !runDiffQuery(t, batchSess, rowSess, q) {
			t.Fatalf("query %q should now plan the batch lane", q)
		}
	}
}

// TestSetBatchExecutionReplansPrepared proves the oracle toggle reaches
// prepared statements: after SetBatchExecution(false) an EXECUTE must
// replan onto row closures, not keep the stored native plan.
func TestSetBatchExecutionReplansPrepared(t *testing.T) {
	db := newDiffDB(t, 100)
	s := NewSession(db)
	if _, err := s.Exec(`PREPARE q AS SELECT g, avg(f) FROM d GROUP BY g`); err != nil {
		t.Fatal(err)
	}
	lane := func() string {
		s.mu.Lock()
		defer s.mu.Unlock()
		return planLane(s.prepared["q"].plan)
	}
	if _, err := s.Query(`EXECUTE q`); err != nil {
		t.Fatal(err)
	}
	if lane() != "batch" {
		t.Fatal("prepared plan should start on the batch lane")
	}
	s.SetBatchExecution(false)
	want, err := s.Query(`EXECUTE q`)
	if err != nil {
		t.Fatal(err)
	}
	if lane() != "row" {
		t.Fatal("EXECUTE after SetBatchExecution(false) kept the batch lane")
	}
	s.SetBatchExecution(true)
	got, err := s.Query(`EXECUTE q`)
	if err != nil {
		t.Fatal(err)
	}
	if lane() != "batch" {
		t.Fatal("EXECUTE after re-enabling did not return to the batch lane")
	}
	if formatResult(got) != formatResult(want) {
		t.Fatalf("lanes diverge for the prepared plan:\n%s\n%s", formatResult(got), formatResult(want))
	}
}

// TestBatchLanePrepared runs the parameterized WHERE comparison (the
// SQLPrepared benchmark shape) on both lanes.
func TestBatchLanePrepared(t *testing.T) {
	db := newDiffDB(t, 500)
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	prep := `PREPARE q AS SELECT g, avg(f), count(*) FROM d WHERE f > $1 GROUP BY g`
	for _, sess := range []*Session{batchSess, rowSess} {
		if _, err := sess.Exec(prep); err != nil {
			t.Fatal(err)
		}
	}
	// The parameterized comparison has a native kernel: it alone puts a
	// bool max (no kernel of its own) on the batch lane.
	if !nativeLane(t, batchSess, `SELECT max(b) FROM d WHERE f > $1`) {
		t.Fatal("parameterized comparison did not lower to its batch kernel")
	}
	for _, arg := range []string{"-5", "0", "12.25", "1e18", "'nope'"} {
		q := fmt.Sprintf("EXECUTE q(%s)", arg)
		bRes, bErr := batchSess.Query(q)
		rRes, rErr := rowSess.Query(q)
		if errText(bErr) != errText(rErr) {
			t.Fatalf("EXECUTE q(%s): batch err %v, row err %v", arg, bErr, rErr)
		}
		if bErr == nil && formatResult(bRes) != formatResult(rRes) {
			t.Fatalf("EXECUTE q(%s):\n--- batch ---\n%s\n--- row ---\n%s",
				arg, formatResult(bRes), formatResult(rRes))
		}
	}
}

// newJoinDiffDB extends the diff table with a small dimension table
// keyed on d.g, for exercising the relational (row-lane) shapes.
func newJoinDiffDB(t *testing.T, rows int) *engine.DB {
	t.Helper()
	db := newDiffDB(t, rows)
	dims, err := db.CreateTable("dims", engine.Schema{
		{Name: "g", Kind: engine.Int},
		{Name: "name", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ { // g=5,6 of d stay unmatched
		if err := dims.Insert(int64(g), fmt.Sprintf("g%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestRowLaneShapesPinned pins the lowering decisions. Every planned
// scan, aggregate and window carries a batch program and runs on its one
// batch executor; what varies is which consumers lowered to native
// kernels. The lane reads "row" only when none did: Vector-typed
// operands, bool min/max and $n arithmetic outside a comparison lower
// to row-closure kernels, and a statement made only of those is the row
// lane's last tenant. A scalar function over a possibly-NULL argument
// has a kernel: it is strict, so it runs over the valid rows.
func TestRowLaneShapesPinned(t *testing.T) {
	db := newJoinDiffDB(t, 300)
	sess := NewSession(db)
	oracle := NewSession(db)
	oracle.SetBatchExecution(false)
	plan := func(s *Session, q string) stmtPlan {
		t.Helper()
		pl, err := s.planStmt(mustParseStmt(t, q))
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		return pl
	}
	shapes := []struct {
		query string
		lane  string // planLane in the default mode
	}{
		// Joined sources: the kernels run over the join materialization.
		{`SELECT dims.name, sum(d.f) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name`, "batch"},
		{`SELECT d.i, dims.name FROM d JOIN dims ON d.g = dims.g WHERE d.f > 0`, "batch"},
		// LEFT JOIN: validity-masked folds and NULL-boxing projection.
		{`SELECT count(dims.name) FROM d LEFT JOIN dims ON d.g = dims.g`, "batch"},
		{`SELECT d.i, dims.name FROM d LEFT JOIN dims ON d.g = dims.g WHERE d.f > 0`, "batch"},
		{`SELECT DISTINCT g FROM d WHERE f > 0`, "batch"},
		{`SELECT DISTINCT avg(f) FROM d GROUP BY g`, "batch"},
		{`SELECT sum(f) OVER (PARTITION BY g ORDER BY i) FROM d WHERE b`, "batch"},
		{`SELECT count(dims.name) OVER (PARTITION BY d.g ORDER BY d.i) FROM d LEFT JOIN dims ON d.g = dims.g`, "batch"},
		{`SELECT g, sum(f) FROM d WHERE f > 0 GROUP BY g`, "batch"},
		{`SELECT i FROM d WHERE f > 0`, "batch"},
		{`SELECT count(*) FROM d`, "fused"},
		// Mixed: a row-closure consumer beside a native one.
		{`SELECT i FROM d WHERE array_get(v, 1) >= 0`, "batch"},
		{`SELECT row_number() OVER (PARTITION BY v ORDER BY i) FROM d`, "batch"},
		{`SELECT sum(abs(dims.g)) FROM d LEFT JOIN dims ON d.g = dims.g WHERE d.f > 0`, "batch"},
		{`SELECT v, count(*) FROM d GROUP BY v`, "batch"},
		{`SELECT i, g FROM d WHERE i >= $1 AND i < $1 + 10`, "batch"},
		// No consumer has a kernel.
		{`SELECT v FROM d WHERE array_get(v, 1) >= 0`, "row"},
		{`SELECT sum(abs(dims.g)) FROM d LEFT JOIN dims ON d.g = dims.g`, "batch"},
		{`SELECT max(b) FROM d`, "row"},
		{`SELECT sum(f + $1) FROM d`, "row"},
	}
	for _, sh := range shapes {
		for _, s := range []*Session{sess, oracle} {
			want := sh.lane
			if s == oracle {
				want = "row" // oracle mode lowers every consumer to its closure
			}
			pl := plan(s, sh.query)
			if got := planLane(pl); got != want {
				t.Errorf("%q: lane %q, want %q", sh.query, got, want)
			}
			var prog *batchProg
			switch p := pl.(type) {
			case *scanPlan:
				prog = p.prog
			case *aggPlan:
				prog = p.lane.prog
			case *windowPlan:
				prog = p.prog
			}
			if prog == nil {
				t.Errorf("%q: planned without a batch program", sh.query)
			}
		}
	}
	// The individual lowerings behind the mixed shapes.
	sp := plan(sess, `SELECT i, v FROM d WHERE array_get(v, 1) >= 0`).(*scanPlan)
	if sp.nativePred || sp.nativeItems != 1 || sp.items[0].rowFn != nil || sp.items[1].rowFn == nil {
		t.Errorf("scan lowered pred native=%v, %d native items", sp.nativePred, sp.nativeItems)
	}
	ap := plan(sess, `SELECT max(b), sum(f) FROM d WHERE f > 0`).(*aggPlan)
	if ap.lane.specs[0].native || !ap.lane.specs[1].native {
		t.Error("bool max must fold rows and sum(f) must keep its kernel")
	}
}

// TestRowLaneShapesCacheConsistency runs each row-lane shape three ways
// — fresh plan, plan-cache hit, and a batch-disabled session — and
// requires identical results. The cache hit is asserted via LastTiming.
func TestRowLaneShapesCacheConsistency(t *testing.T) {
	db := newJoinDiffDB(t, 400)
	sess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	queries := []string{
		`SELECT d.g, dims.name, d.i FROM d JOIN dims ON d.g = dims.g WHERE d.f > 0 ORDER BY d.g, d.i, d.s LIMIT 40`,
		`SELECT dims.name, count(*), sum(d.i), avg(d.f) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name ORDER BY dims.name`,
		`SELECT d.g, dims.name FROM d LEFT JOIN dims ON d.g = dims.g ORDER BY d.g, d.i LIMIT 30`,
		`SELECT count(dims.name), count(*) FROM d LEFT JOIN dims ON d.g = dims.g`,
		`SELECT DISTINCT g, b FROM d ORDER BY g, b`,
		`SELECT DISTINCT g FROM d WHERE i % 2 = 0 ORDER BY g`,
		`SELECT g, row_number() OVER (PARTITION BY g ORDER BY i, f, s) rn FROM d ORDER BY g, rn LIMIT 50`,
		`SELECT g, sum(f) OVER (PARTITION BY g ORDER BY i, s) rs FROM d WHERE i <> 0 ORDER BY g, rs LIMIT 50`,
	}
	for _, q := range queries {
		first, err := sess.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if sess.LastTiming().CacheHit {
			t.Fatalf("%q: first execution cannot be a cache hit", q)
		}
		second, err := sess.Query(q)
		if err != nil {
			t.Fatalf("%q (cached): %v", q, err)
		}
		if !sess.LastTiming().CacheHit {
			t.Fatalf("%q: second execution must hit the plan cache", q)
		}
		rowRes, err := rowSess.Query(q)
		if err != nil {
			t.Fatalf("%q (row session): %v", q, err)
		}
		if formatResult(first) != formatResult(second) {
			t.Fatalf("%q: cache hit changed the result\n--- fresh ---\n%s\n--- cached ---\n%s",
				q, formatResult(first), formatResult(second))
		}
		if formatResult(first) != formatResult(rowRes) {
			t.Fatalf("%q: sessions diverge\n--- batch sess ---\n%s\n--- row sess ---\n%s",
				q, formatResult(first), formatResult(rowRes))
		}
	}
}

// TestJoinPlanCacheInvalidation proves a cached join plan revalidates
// BOTH table bindings: re-creating either side forces a replan instead
// of executing against the dropped table.
func TestJoinPlanCacheInvalidation(t *testing.T) {
	db := newJoinDiffDB(t, 100)
	sess := NewSession(db)
	const q = `SELECT count(*) FROM d JOIN dims ON d.g = dims.g`
	first, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Re-create the RIGHT table through a different session: the cached
	// plan's pointer check must notice.
	other := NewSession(db)
	if _, err := other.Exec(`DROP TABLE dims; CREATE TABLE dims (g bigint, name text)`); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Exec(`INSERT INTO dims VALUES (0, 'only')`); err != nil {
		t.Fatal(err)
	}
	second, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if sess.LastTiming().CacheHit {
		t.Fatal("stale join plan was executed from the cache after right-table DDL")
	}
	if formatResult(first) == formatResult(second) {
		t.Fatal("replanned join should see the new (smaller) dims table")
	}
	// Same for the LEFT table.
	if _, err := sess.Query(q); err != nil { // warm the cache again
		t.Fatal(err)
	}
	if _, err := other.Exec(`DROP TABLE d; CREATE TABLE d (g bigint, f double precision); INSERT INTO d VALUES (0, 1.5)`); err != nil {
		t.Fatal(err)
	}
	third, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if sess.LastTiming().CacheHit {
		t.Fatal("stale join plan was executed from the cache after left-table DDL")
	}
	if got := third.Rows[0][0]; got != int64(1) {
		t.Fatalf("replanned join count = %v, want 1", got)
	}
}

// TestNullBatchLaneDifferential pins the NULL-aware kernels against the
// row-lane oracle over a LEFT JOIN source: dims rows match d.g 0..4, so
// d.g 5 and 6 carry NULL dims columns. Covers NULL-skipping aggregates,
// NULL-in-arithmetic (NULL propagates and never faults, even over a
// zero divisor), NULL-compare edges (false in predicate position, float
// domain for nullable numeric compares), columnar projection boxing
// NULLs, DISTINCT with NULL keys, and the vectorized window gather.
func TestNullBatchLaneDifferential(t *testing.T) {
	db := newJoinDiffDB(t, 700)
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	const lj = ` FROM d LEFT JOIN dims ON d.g = dims.g`
	aggQueries := []string{
		// NULL-skipping folds: count(expr) counts only non-NULL rows.
		`SELECT count(*), count(dims.g), count(dims.name)` + lj,
		`SELECT sum(dims.g), avg(dims.g), min(dims.g), max(dims.g)` + lj,
		`SELECT min(dims.name), max(dims.name)` + lj,
		// NULL in arithmetic: NULL + x stays NULL and the fold skips it.
		`SELECT sum(dims.g + 1), sum(dims.g * d.i), avg(dims.g / 2.0)` + lj,
		// A NULL operand wins over a zero divisor — no fault on the
		// padded rows (d.g > 4 selects only unmatched rows).
		`SELECT sum(d.i / dims.g)` + lj + ` WHERE d.g > 4`,
		`SELECT sum(dims.g / 0), sum(dims.g % 0)` + lj + ` WHERE d.g > 4`,
		// NULL compares are false in predicate position; NOT is
		// two-valued, so NOT (NULL < 3) flips back to true. NULL never
		// equals itself.
		`SELECT count(*)` + lj + ` WHERE dims.g < 3`,
		`SELECT count(*)` + lj + ` WHERE NOT (dims.g < 3)`,
		`SELECT count(*)` + lj + ` WHERE dims.g = dims.g`,
		`SELECT count(*)` + lj + ` WHERE dims.name >= 'g2' OR d.b`,
		// Nullable numeric compares run in the float domain on both
		// lanes, even int vs int at int64 extremes.
		`SELECT count(*)` + lj + ` WHERE dims.g < d.i`,
		`SELECT count(*)` + lj + ` WHERE d.i <= dims.g AND d.i > 9223372036854775000`,
		// Grouped (nullable GROUP BY keys are rejected at plan time, so
		// keys come from d): folds skip NULLs per group, and groups whose
		// rows are all unmatched fold to NULL results.
		`SELECT d.s, count(dims.g), sum(dims.g), min(dims.name)` + lj + ` GROUP BY d.s`,
		`SELECT d.g, avg(dims.g)` + lj + ` GROUP BY d.g`,
		// HAVING over a NULL-skipping aggregate: an all-NULL group's sum
		// is NULL, which HAVING treats as not kept.
		`SELECT d.g, sum(dims.g)` + lj + ` GROUP BY d.g HAVING sum(dims.g) >= 0`,
	}
	for _, q := range aggQueries {
		if !runDiffQuery(t, batchSess, rowSess, q) {
			t.Fatalf("query %q should plan the batch lane", q)
		}
	}
	scanQueries := []string{
		// Columnar projection boxes NULL where the validity lane is false.
		`SELECT d.i, dims.g, dims.name` + lj + ` ORDER BY d.i, d.s LIMIT 60`,
		`SELECT dims.g + d.i, dims.g * 2` + lj + ` WHERE d.f > 0 ORDER BY 1, d.i LIMIT 40`,
		// Unordered: morsel-order concatenation must reproduce the row
		// lane's segment-order output exactly.
		`SELECT d.g, dims.name` + lj + ` WHERE d.f >= 0`,
		// NULL sorts first and dedupes as a single value.
		`SELECT DISTINCT dims.name` + lj + ` ORDER BY dims.name`,
		`SELECT DISTINCT dims.g, d.b` + lj + ` WHERE d.f > -100 ORDER BY dims.g, d.b`,
	}
	for _, q := range scanQueries {
		runDiffQuery(t, batchSess, rowSess, q)
	}
	windowQueries := []string{
		// Vectorized gather over the nullable source; NULL partition keys
		// and NULL aggregate arguments flow through the fold.
		`SELECT d.g, sum(dims.g) OVER (PARTITION BY dims.name ORDER BY d.i, d.s)` + lj + ` ORDER BY 1, 2 LIMIT 80`,
		`SELECT d.i, count(dims.name) OVER (PARTITION BY d.g ORDER BY d.i, d.s)` + lj + ` ORDER BY 1, 2 LIMIT 80`,
		// No outer ORDER BY: gather order itself must match the staged
		// row-lane order, ties included.
		`SELECT d.g, row_number() OVER (PARTITION BY dims.g ORDER BY d.i)` + lj + ` WHERE d.f > 0 LIMIT 120`,
	}
	for _, q := range windowQueries {
		if !nativeLane(t, batchSess, q) {
			t.Fatalf("query %q should plan the vectorized window gather", q)
		}
		runDiffQuery(t, batchSess, rowSess, q)
	}
}

// TestBatchLaneMultiBatchMorsels re-runs the core vectorized shapes
// over a table whose morsels span several ColBatches (>BatchSize rows
// per segment): per-morsel buffers must accumulate across a morsel's
// batches, not reset. Regression — the window gather once kept only
// each morsel's last batch, which a single-batch-per-morsel fixture
// cannot catch.
func TestBatchLaneMultiBatchMorsels(t *testing.T) {
	db := newJoinDiffDB(t, 5000) // 3 segments, ~1667 rows each: 2 batches per morsel
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	const lj = ` FROM d LEFT JOIN dims ON d.g = dims.g`
	for _, q := range []string{
		`SELECT d.i, row_number() OVER (PARTITION BY d.g ORDER BY d.i, d.s) FROM d ORDER BY d.i, d.s LIMIT 30`,
		`SELECT d.i, sum(dims.g) OVER (PARTITION BY dims.name ORDER BY d.i, d.s)` + lj + ` ORDER BY 1, 2 LIMIT 30`,
		`SELECT d.g, dims.name` + lj + ` WHERE d.f > 0`,
		`SELECT DISTINCT dims.name` + lj + ` ORDER BY dims.name`,
		`SELECT d.g, count(dims.g)` + lj + ` WHERE d.b GROUP BY d.g ORDER BY d.g`,
	} {
		runDiffQuery(t, batchSess, rowSess, q)
	}
}

// withGOMAXPROCS forces the engine's worker-pool mode (raising
// GOMAXPROCS above NumCPU is legal), restoring the setting afterwards.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestJoinedBatchLaneDifferential runs inner-joined aggregates and
// filtered joined scans on both lanes — the batch session must actually
// plan the vectorized lane for the aggregate shapes — including the
// division-by-zero and overflow edges over the join output.
func TestJoinedBatchLaneDifferential(t *testing.T) {
	db := newJoinDiffDB(t, 600)
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	aggQueries := []string{
		`SELECT count(*) FROM d JOIN dims ON d.g = dims.g`,
		`SELECT dims.name, sum(d.f), count(*) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name`,
		`SELECT dims.name, avg(d.i), min(d.s) FROM d JOIN dims ON d.g = dims.g WHERE d.f > 0 GROUP BY dims.name`,
		`SELECT sum(d.f * 2), max(abs(d.i % 97)) FROM d JOIN dims ON d.g = dims.g WHERE d.b`,
		`SELECT min(dims.name), max(dims.name) FROM d JOIN dims ON d.g = dims.g`,
		`SELECT sum(d.i * d.i), min(d.i + d.i) FROM d JOIN dims ON d.g = dims.g`,
		`SELECT count(*) FROM d JOIN dims ON d.g = dims.g WHERE d.i <> 0 AND 100 / d.i > 2`,
	}
	for _, q := range aggQueries {
		if !runDiffQuery(t, batchSess, rowSess, q) {
			t.Fatalf("query %q should plan the batch lane over the join", q)
		}
	}
	// Error edges must agree over the joined source too (both lanes
	// error identically, so no lane assertion).
	runDiffQuery(t, batchSess, rowSess, `SELECT sum(10 / d.i) FROM d JOIN dims ON d.g = dims.g`)
	runDiffQuery(t, batchSess, rowSess, `SELECT d.g, sum(1 / d.i) FROM d JOIN dims ON d.g = dims.g GROUP BY d.g`)
	scanQueries := []string{
		`SELECT d.i, dims.name FROM d JOIN dims ON d.g = dims.g WHERE d.f > 0 ORDER BY d.i, d.s, dims.name LIMIT 40`,
		`SELECT d.g, d.f FROM d JOIN dims ON d.g = dims.g WHERE d.i % 2 = 0 ORDER BY 2, 1 LIMIT 25`,
	}
	for _, q := range scanQueries {
		runDiffQuery(t, batchSess, rowSess, q)
	}
}

// TestParallelLaneDifferential reruns the differential edge queries with
// the worker pool engaged (tables above engine.ParallelRowThreshold,
// GOMAXPROCS raised), so the morsel scheduler is exercised under the
// differential oracle — and pins that ORDER BY output is deterministic
// across repeated parallel executions, including tie groups, which must
// stay in segment order.
func TestParallelLaneDifferential(t *testing.T) {
	rows := engine.ParallelRowThreshold + 1500
	db := newJoinDiffDB(t, rows)
	withGOMAXPROCS(t, 4)
	batchSess := NewSession(db)
	rowSess := NewSession(db)
	rowSess.SetBatchExecution(false)
	queries := []string{
		`SELECT g, avg(f), count(*) FROM d WHERE f > 0.25 GROUP BY g`,
		`SELECT sum(i * i), min(i + i), max(i - 1 + i) FROM d`,
		`SELECT sum(10 / i) FROM d`,
		`SELECT count(*) FROM d WHERE i <> 0 AND 100 / i > 2`,
		`SELECT s, stddev(f), variance(i) FROM d WHERE s <> 's0' GROUP BY s`,
		`SELECT min(s), max(s) FROM d WHERE b`,
		`SELECT dims.name, sum(d.f) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name`,
		`SELECT i, f, s FROM d WHERE f > 10 AND i % 2 = 0 ORDER BY i, s LIMIT 50`,
	}
	for _, q := range queries {
		runDiffQuery(t, batchSess, rowSess, q)
	}
	// Determinism: repeated parallel executions of an ORDER BY query with
	// heavy ties must produce byte-identical output.
	ordered := []string{
		`SELECT i, f, s FROM d WHERE f >= 0 ORDER BY g LIMIT 200`,
		`SELECT g, count(*) c FROM d GROUP BY g ORDER BY c DESC, g`,
	}
	for _, q := range ordered {
		want, err := batchSess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			got, err := batchSess.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if formatResult(got) != formatResult(want) {
				t.Fatalf("query %q: parallel execution %d diverged\n--- want ---\n%s\n--- got ---\n%s",
					q, trial, formatResult(want), formatResult(got))
			}
		}
	}
}

// TestMixedLoweringDifferential runs statements that mix native batch
// kernels with row-closure kernels in one plan — the shapes that used to
// send the whole statement to a second executor — in both modes, with
// the sequential driver and with the worker pool, and requires
// bit-identical results including error text.
func TestMixedLoweringDifferential(t *testing.T) {
	queries := []string{
		// A native comparison AND-ed with a Vector operand.
		`SELECT i, f FROM d WHERE f > 0 AND array_get(v, 1) >= 0`,
		`SELECT count(*), sum(f) FROM d WHERE f > 0 AND array_get(v, 1) >= 0`,
		// A columnar item beside a Vector item; an ORDER BY key over the
		// input row beside an ordinal.
		`SELECT i, v FROM d WHERE f > 0`,
		`SELECT v, s FROM d WHERE b ORDER BY array_get(v, 1), 2, i LIMIT 70`,
		`SELECT DISTINCT v, b FROM d WHERE f > 0 ORDER BY v, b`,
		// A scalar function over a NULL-padded column folds rows behind a
		// vectorized WHERE; without the guard the closure raises on NULL.
		`SELECT sum(abs(dims.g)), count(*) FROM d LEFT JOIN dims ON d.g = dims.g WHERE d.f > 0 AND d.g < 5`,
		`SELECT d.s, sum(abs(dims.g)) FROM d LEFT JOIN dims ON d.g = dims.g WHERE d.g < 5 GROUP BY d.s`,
		`SELECT sum(abs(dims.g)) FROM d LEFT JOIN dims ON d.g = dims.g WHERE d.f > 0`,
		// bool min/max beside native folds.
		`SELECT max(b), min(b), sum(f), count(*) FROM d WHERE f > 0`,
		`SELECT g, max(b), avg(f) FROM d GROUP BY g`,
		// Vector group keys, alone and in a composite.
		`SELECT v, count(*), sum(f) FROM d GROUP BY v`,
		`SELECT v, g, min(s), max(b) FROM d WHERE f > 0 GROUP BY v, g`,
		// Vector partition key under a vectorized WHERE.
		`SELECT v, i, row_number() OVER (PARTITION BY v ORDER BY i, s, f) FROM d WHERE f > 0`,
		`SELECT g, sum(f) OVER (PARTITION BY v, g ORDER BY array_get(v, 1), i, s, f) FROM d WHERE f > 0 ORDER BY 1, 2 LIMIT 90`,
		// Errors raised inside a row-closure kernel.
		`SELECT i FROM d WHERE f > 0 AND array_get(v, 2) >= 0`,
		`SELECT i, array_get(v, 2) FROM d WHERE f > 0`,
		`SELECT g, sum(array_get(v, 2)) FROM d WHERE f > 0 GROUP BY g`,
		`SELECT row_number() OVER (PARTITION BY array_get(v, 2) ORDER BY i) FROM d WHERE f > 0`,
	}
	prepared := []struct {
		name, text string
		args       []string
	}{
		{"agg", `SELECT sum(f + $1), count(*) FROM d WHERE f > 0`, []string{"1", "0.5", "'nope'"}},
		{"rng", `SELECT i, v FROM d WHERE i >= $1 AND i < $1 + 10`, []string{"-5", "0", "990", "1.5", "'nope'"}},
		{"grp", `SELECT v, sum(i % $1) FROM d WHERE f > $2 GROUP BY v`, []string{"7, 0", "0, 0", "3, 'x'"}},
	}
	db := newJoinDiffDB(t, engine.ParallelRowThreshold+1500)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			batchSess := NewSession(db)
			rowSess := NewSession(db)
			rowSess.SetBatchExecution(false)
			for _, q := range queries {
				runDiffQuery(t, batchSess, rowSess, q)
			}
			for _, p := range prepared {
				for _, sess := range []*Session{batchSess, rowSess} {
					mustExec(t, sess, fmt.Sprintf("PREPARE %s AS %s", p.name, p.text))
				}
				for _, arg := range p.args {
					runDiffQuery(t, batchSess, rowSess, fmt.Sprintf("EXECUTE %s(%s)", p.name, arg))
				}
			}
		})
	}
}

// joinBuilds reads the engine's join build counter.
func joinBuilds(db *engine.DB) int64 {
	return db.Metrics().Counter("engine_join_builds").Value()
}

// checkJoinCache asserts the engine's join cache holds want entries and
// that no join materialization ever entered the catalog.
func checkJoinCache(t *testing.T, db *engine.DB, want int) {
	t.Helper()
	if n := db.JoinCacheLen(); n != want {
		t.Fatalf("join cache holds %d entries, want %d", n, want)
	}
	for _, name := range db.TableNames() {
		if strings.Contains(name, "join") {
			t.Fatalf("join materialization %q is in the catalog", name)
		}
	}
}

// TestJoinMaterializationCache pins the cached-join semantics: a second
// execution reuses the materialization, an INSERT into either input
// makes the next one rebuild, results are identical on hit and miss, and
// unrelated DDL leaves both the plan and the materialization cached.
func TestJoinMaterializationCache(t *testing.T) {
	db := newJoinDiffDB(t, 300)
	sess := NewSession(db)
	const q = `SELECT dims.name, sum(d.f) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name ORDER BY dims.name`
	builds := joinBuilds(db)
	step := func(what string, wantBuilds int64) *Result {
		t.Helper()
		r, err := sess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := joinBuilds(db) - builds; got != wantBuilds {
			t.Fatalf("%s: %d join builds, want %d", what, got, wantBuilds)
		}
		builds += wantBuilds
		checkJoinCache(t, db, 1)
		return r
	}
	first := step("first execution", 1)
	if second := step("unchanged inputs", 0); formatResult(first) != formatResult(second) {
		t.Fatalf("cache hit changed the result:\n%s\nvs\n%s", formatResult(first), formatResult(second))
	}
	mustExec(t, sess, `INSERT INTO d VALUES (0, 1, 100.5, 's1', true, {1})`)
	if third := step("INSERT into the probe side", 1); formatResult(third) == formatResult(first) {
		t.Fatal("rebuilt join should reflect the inserted row")
	}
	mustExec(t, sess, `INSERT INTO dims VALUES (6, 'g6')`)
	step("INSERT into the build side", 1)
	mustExec(t, sess, `CREATE TABLE unrelated (x bigint)`)
	step("after unrelated DDL", 0)
	if !sess.LastTiming().CacheHit {
		t.Fatal("unrelated DDL evicted the cached join plan")
	}
}

// TestJoinCacheDropsWithInput proves a join's materialization lives no
// longer than its inputs: DROP TABLE of one discards it while a prepared
// statement over the join is still allocated.
func TestJoinCacheDropsWithInput(t *testing.T) {
	db := newJoinDiffDB(t, 200)
	sess := NewSession(db)
	mustExec(t, sess, `PREPARE pj AS SELECT count(*) FROM d JOIN dims ON d.g = dims.g`)
	mustQuery(t, sess, `EXECUTE pj`)
	checkJoinCache(t, db, 1)
	mustExec(t, sess, `DROP TABLE dims`)
	checkJoinCache(t, db, 0)
	if _, err := sess.Query(`EXECUTE pj`); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("EXECUTE over a dropped input: %v", err)
	}
	checkJoinCache(t, db, 0)
}

// TestJoinCacheSharedAcrossSessions proves sessions that run the same
// join share one materialization, and that sessions never closed pin
// nothing beyond it.
func TestJoinCacheSharedAcrossSessions(t *testing.T) {
	db := newJoinDiffDB(t, 200)
	builds := joinBuilds(db)
	for i := 0; i < 3; i++ {
		sess := NewSession(db)
		mustQuery(t, sess, `SELECT count(*) FROM d JOIN dims ON d.g = dims.g`)
		mustExec(t, sess, `PREPARE pj AS SELECT d.g, count(*) FROM d JOIN dims ON d.g = dims.g GROUP BY d.g`)
		mustQuery(t, sess, `EXECUTE pj`)
	}
	if got := joinBuilds(db) - builds; got != 1 {
		t.Fatalf("three sessions made %d join builds, want 1", got)
	}
	checkJoinCache(t, db, 1)
	// A LEFT JOIN of the same tables is a different join.
	mustQuery(t, NewSession(db), `SELECT count(*) FROM d LEFT JOIN dims ON d.g = dims.g`)
	checkJoinCache(t, db, 2)
}

// TestJoinMaterializationConcurrentExecutions hammers one cached joined
// plan from several goroutines, invalidating (serialized) between
// rounds — under -race this exercises the single-flight rebuild and
// ensures concurrent misses converge on one materialization.
func TestJoinMaterializationConcurrentExecutions(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := newJoinDiffDB(t, 300)
	sess := NewSession(db)
	const q = `SELECT dims.name, count(*) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name ORDER BY dims.name`
	want, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// Serialized mutation: invalidates the materialization (and,
		// being an INSERT into d, changes one group's count).
		if _, err := sess.Exec(`INSERT INTO d VALUES (0, 1, 5.5, 's1', true, {1})`); err != nil {
			t.Fatal(err)
		}
		want, err = sess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					got, err := sess.Query(q)
					if err != nil {
						errs[w] = err
						return
					}
					if formatResult(got) != formatResult(want) {
						errs[w] = fmt.Errorf("concurrent execution diverged:\n%s\nvs\n%s",
							formatResult(got), formatResult(want))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		checkJoinCache(t, db, 1)
	}
}

// TestJoinCacheConcurrentSessions runs two texts of one join from two
// sessions while a third runs unrelated DDL and inserts probe-side rows
// that match nothing: each insert makes the next execution rebuild, the
// answers equal a serial run's, and one cache entry remains.
func TestJoinCacheConcurrentSessions(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := newJoinDiffDB(t, 300)
	texts := []string{
		`SELECT dims.name, count(*), sum(d.i) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name ORDER BY dims.name`,
		`SELECT dims.name, count(*), max(d.i) FROM d JOIN dims ON d.g = dims.g WHERE d.f > 1 GROUP BY dims.name ORDER BY dims.name`,
	}
	want := make([]string, len(texts))
	serial := NewSession(db)
	for i, q := range texts {
		want[i] = formatResult(mustQuery(t, serial, q))
	}
	readers := []*Session{NewSession(db), NewSession(db)}
	errs := make([]error, len(readers)+1)
	var wg sync.WaitGroup
	for w, sess := range readers {
		wg.Add(1)
		go func(w int, sess *Session) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (w + k) % len(texts)
				got, err := sess.Query(texts[i])
				if err == nil && formatResult(got) != want[i] {
					err = fmt.Errorf("%s diverged:\n%s\nvs\n%s", texts[i], formatResult(got), want[i])
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w, sess)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer := NewSession(db)
		for k := 0; k < 10; k++ {
			// g = 99 has no dims row, so no answer changes.
			if _, err := writer.Exec(`CREATE TABLE scratch (x bigint); INSERT INTO d VALUES (99, 1, 5.5, 's1', true, {1}); DROP TABLE scratch`); err != nil {
				errs[len(readers)] = err
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkJoinCache(t, db, 1)
}

// TestScopedInvalidation pins the workload pattern DDL must not disturb:
// join text A, then CREATE TABLE AS + DROP of an unrelated table, then
// join text B over the same join, makes one build, and text A's plan
// stays cached.
func TestScopedInvalidation(t *testing.T) {
	db := newJoinDiffDB(t, 300)
	sess := NewSession(db)
	const a = `SELECT dims.name, count(*) FROM d JOIN dims ON d.g = dims.g GROUP BY dims.name`
	const b = `SELECT count(*) FROM d JOIN dims ON d.g = dims.g WHERE d.f > 0`
	builds := joinBuilds(db)
	invalidations := db.Metrics().Counter("sql_plan_invalidations").Value()
	mustQuery(t, sess, a)
	mustExec(t, sess, `CREATE TABLE side AS SELECT g, f FROM d WHERE f > 0`)
	mustExec(t, sess, `DROP TABLE side`)
	mustQuery(t, sess, b)
	if got := joinBuilds(db) - builds; got != 1 {
		t.Fatalf("join text A, CTAS + DROP, join text B: %d join builds, want 1", got)
	}
	mustQuery(t, sess, a)
	if !sess.LastTiming().CacheHit {
		t.Fatal("unrelated DDL evicted the cached plan of text A")
	}
	// Dropping a joined table evicts exactly the two plans over it.
	mustExec(t, sess, `DROP TABLE dims`)
	if got := db.Metrics().Counter("sql_plan_invalidations").Value() - invalidations; got != 2 {
		t.Fatalf("DROP TABLE dims invalidated %d plans, want 2", got)
	}
}

// TestExplainAnalyzeReusesJoin proves EXPLAIN ANALYZE of an uncached text
// reads the materialization another text of the same join built.
func TestExplainAnalyzeReusesJoin(t *testing.T) {
	db := newJoinDiffDB(t, 300)
	sess := NewSession(db)
	mustQuery(t, sess, `SELECT count(*) FROM d JOIN dims ON d.g = dims.g WHERE d.f > 1`)
	builds := joinBuilds(db)
	var lines []string
	for _, row := range mustQuery(t, sess, `EXPLAIN ANALYZE SELECT count(*) FROM d JOIN dims ON d.g = dims.g WHERE d.f > 2`).Rows {
		lines = append(lines, row[0].(string))
	}
	out := strings.Join(lines, "\n")
	if got := joinBuilds(db) - builds; got != 0 {
		t.Fatalf("EXPLAIN ANALYZE made %d join builds, want 0", got)
	}
	if !strings.Contains(out, "join cache: hit") || !strings.Contains(out, "plan: not cached") {
		t.Fatalf("EXPLAIN ANALYZE output:\n%s", out)
	}
}

// TestSystemViewShadowedByTable proves a cached plan over a system view
// goes stale once a catalog table takes the view's name: the same text
// then reads the table.
func TestSystemViewShadowedByTable(t *testing.T) {
	s := newSession(t)
	const q = `SELECT count(*) FROM madlib_stats_tables`
	mustExec(t, s, `CREATE TABLE t (v float)`)
	if r := mustQuery(t, s, q); r.Rows[0][0] != int64(1) {
		t.Fatalf("view rows = %v", r.Rows)
	}
	mustQuery(t, s, q)
	if !s.LastTiming().CacheHit {
		t.Fatal("second read of the view should hit the plan cache")
	}
	mustExec(t, s, `CREATE TABLE madlib_stats_tables (x bigint)`)
	mustExec(t, s, `INSERT INTO madlib_stats_tables VALUES (7), (8), (9)`)
	// The view would count 2 catalog tables now; the table holds 3 rows.
	if r := mustQuery(t, s, q); r.Rows[0][0] != int64(3) || s.LastTiming().CacheHit {
		t.Fatalf("cached view plan read %v (cache hit %v), want the table's 3 rows", r.Rows, s.LastTiming().CacheHit)
	}
}
