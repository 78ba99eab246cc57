package sql

import (
	"errors"
	"math"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// compileFor parses a single scalar expression and compiles it against
// the schema.
func compileFor(t *testing.T, schema engine.Schema, expr string) *compiled {
	t.Helper()
	st, err := ParseStatement("SELECT " + expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	c, err := compileExpr(st.(*Select).Items[0].Expr, newCompileCtx(schema))
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return c
}

// evalOn evaluates a compiled expression over the first row of a
// single-segment table built from schema+values.
func evalOn(t *testing.T, schema engine.Schema, vals []any, expr string, env *execEnv) (any, error) {
	t.Helper()
	db := engine.Open(1)
	tbl, err := db.CreateTable("c", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(vals...); err != nil {
		t.Fatal(err)
	}
	c := compileFor(t, schema, expr)
	var out any
	var evalErr error
	err = db.ForEachSegment(tbl, func(_ int, row engine.Row) error {
		out, evalErr = c.a(row, env)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("c"); err != nil {
		t.Fatal(err)
	}
	return out, evalErr
}

// typedFastPathCases are expressions over the schema of
// TestCompileTypedFastPaths with their static kinds and values; they also
// seed FuzzExprLanes.
var typedFastPathCases = []struct {
	expr string
	kind ckind
	want any
}{
	{"f", ckFloat, 2.5},
	{"i", ckInt, int64(7)},
	{"s", ckStr, "hi"},
	{"b", ckBool, true},
	{"f * 2 + 1", ckFloat, 6.0},
	{"i * 2 + 1", ckInt, int64(15)},
	{"i + f", ckFloat, 9.5},
	{"i / 2", ckInt, int64(3)},
	{"i % 4", ckInt, int64(3)},
	{"-f", ckFloat, -2.5},
	{"-i", ckInt, int64(-7)},
	{"f > 2", ckBool, true},
	{"i <= 6", ckBool, false},
	{"s = 'hi'", ckBool, true},
	{"s < 'ha'", ckBool, false},
	{"b AND f > 0", ckBool, true},
	{"NOT b", ckBool, false},
	{"f > 100 OR i = 7", ckBool, true},
	{"abs(-3)", ckInt, int64(3)},
	{"abs(f - 10)", ckFloat, 7.5},
	{"sqrt(f + 6.5)", ckFloat, 3.0},
	{"pow(i, 2)", ckFloat, 49.0},
	{"length(s)", ckInt, int64(2)},
	{"array_length(v)", ckInt, int64(3)},
	{"array_get(v, 2)", ckFloat, 2.0},
	{"{1, f, i}", ckVec, []float64{1, 2.5, 7}},
	{"i % 2 = 1 AND f < 3", ckBool, true},
}

func TestCompileTypedFastPaths(t *testing.T) {
	schema := engine.Schema{
		{Name: "f", Kind: engine.Float},
		{Name: "i", Kind: engine.Int},
		{Name: "s", Kind: engine.String},
		{Name: "b", Kind: engine.Bool},
		{Name: "v", Kind: engine.Vector},
	}
	vals := []any{2.5, int64(7), "hi", true, []float64{1, 2, 3}}
	for _, tc := range typedFastPathCases {
		c := compileFor(t, schema, tc.expr)
		if c.kind != tc.kind {
			t.Errorf("%q: kind = %v, want %v", tc.expr, c.kind, tc.kind)
		}
		got, err := evalOn(t, schema, vals, tc.expr, nil)
		if err != nil {
			t.Errorf("%q: eval: %v", tc.expr, err)
			continue
		}
		switch want := tc.want.(type) {
		case []float64:
			gv, ok := got.([]float64)
			if !ok || len(gv) != len(want) {
				t.Errorf("%q = %#v, want %#v", tc.expr, got, want)
				continue
			}
			for i := range want {
				if gv[i] != want[i] {
					t.Errorf("%q[%d] = %v, want %v", tc.expr, i, gv[i], want[i])
				}
			}
		default:
			if got != tc.want {
				t.Errorf("%q = %#v (%T), want %#v", tc.expr, got, got, tc.want)
			}
		}
	}
}

// TestArithEdgeCases pins down the integer/float arithmetic edge cases:
// division by zero and modulo by zero must be clean SQL errors (never
// panics) through both FROM-less and per-row evaluation.
func TestArithEdgeCases(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE az (i bigint, f float);
		INSERT INTO az VALUES (0, 0), (2, 0.5)`)
	for _, q := range []string{
		// FROM-less path.
		`SELECT 1 / 0`,
		`SELECT 1 % 0`,
		`SELECT 1.5 / 0`,
		`SELECT 2.5 % 0`,
		`SELECT 1 / (2 - 2)`,
		// Compiled per-row paths (int and float lanes).
		`SELECT 10 / i FROM az`,
		`SELECT 10 % i FROM az`,
		`SELECT 10.0 / f FROM az`,
		`SELECT 10.5 % f FROM az`,
		// Inside WHERE and aggregate arguments.
		`SELECT i FROM az WHERE 1 / i > 0`,
		`SELECT sum(10 / i) FROM az`,
		`SELECT count(1 % i) FROM az`,
	} {
		_, err := s.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%q: err = %v, want division by zero", q, err)
		}
	}
	// Non-zero divisors work on the same lanes, including float modulo.
	r := mustQuery(t, s, `SELECT 7 % 2, 7.5 % 2, -7 / 2 FROM az WHERE i = 2`)
	if r.Rows[0][0] != int64(1) || r.Rows[0][1] != 1.5 || r.Rows[0][2] != int64(-3) {
		t.Fatalf("arith row = %v", r.Rows[0])
	}
	// MinInt64 / -1 wraps (two's complement), it must not panic.
	if got, err := evalArith("/", int64(math.MinInt64), int64(-1)); err != nil || got != int64(math.MinInt64) {
		t.Fatalf("MinInt64 / -1 = %v, %v", got, err)
	}
}

func TestMinMaxIntPrecision(t *testing.T) {
	// min/max over BIGINT must stay in int64: a float64 round-trip loses
	// precision above 2^53 and overflows at 2^63-1.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE big (c bigint)`)
	tbl, _ := s.DB().Table("big")
	for _, v := range []int64{math.MaxInt64, 5, math.MinInt64, 9007199254740993, 9007199254740992} {
		if err := tbl.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, s, `SELECT max(c), min(c) FROM big`)
	if r.Rows[0][0] != int64(math.MaxInt64) {
		t.Fatalf("max = %v, want MaxInt64", r.Rows[0][0])
	}
	if r.Rows[0][1] != int64(math.MinInt64) {
		t.Fatalf("min = %v, want MinInt64", r.Rows[0][1])
	}
	mustExec(t, s, `CREATE TABLE p53 (c bigint);
		INSERT INTO p53 VALUES (9007199254740993), (9007199254740992)`)
	r = mustQuery(t, s, `SELECT max(c) FROM p53`)
	if r.Rows[0][0] != int64(9007199254740993) {
		t.Fatalf("max above 2^53 = %v, want 9007199254740993", r.Rows[0][0])
	}
}

func TestCompileParams(t *testing.T) {
	schema := engine.Schema{{Name: "f", Kind: engine.Float}}
	env := &execEnv{params: []any{10.0, "txt"}}
	got, err := evalOn(t, schema, []any{4.0}, "f + $1", env)
	if err != nil || got != 14.0 {
		t.Fatalf("f + $1 = %v, %v", got, err)
	}
	got, err = evalOn(t, schema, []any{4.0}, "f > $1", env)
	if err != nil || got != false {
		t.Fatalf("f > $1 = %v, %v", got, err)
	}
	if _, err = evalOn(t, schema, []any{4.0}, "f + $2", env); err == nil ||
		!strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("f + $2 (text param): %v", err)
	}
	if _, err = evalOn(t, schema, []any{4.0}, "f + $3", env); err == nil ||
		!strings.Contains(err.Error(), "no parameter $3") {
		t.Fatalf("missing param: %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	schema := engine.Schema{
		{Name: "f", Kind: engine.Float},
		{Name: "s", Kind: engine.String},
	}
	cc := newCompileCtx(schema)
	for _, tc := range []struct{ expr, want string }{
		{"nope", "no such column"},
		{"f + s", "does not apply"},
		{"f = s", "cannot compare"},
		{"NOT f", "must be boolean"},
		{"f AND s = 'x'", "must be boolean"},
		{"-s", "cannot negate"},
		{"frobnicate(f)", "unknown function"},
		{"sqrt(s)", "not numeric"},
		{"abs(s)", "not numeric"},
		{"length(f)", "must be text or array"},
		{"avg(f)", "not allowed here"},
	} {
		st, err := ParseStatement("SELECT " + tc.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		_, err = compileExpr(st.(*Select).Items[0].Expr, cc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("compile %q: err = %v, want %q", tc.expr, err, tc.want)
		}
	}
	st, _ := ParseStatement("SELECT nope")
	_, err := compileExpr(st.(*Select).Items[0].Expr, cc)
	if !errors.Is(err, engine.ErrNoColumn) {
		t.Fatalf("unknown column should wrap ErrNoColumn: %v", err)
	}
}

func TestStmtMaxParam(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{`SELECT 1`, 0},
		{`SELECT $1 + $2`, 2},
		{`SELECT v FROM t WHERE v > $3`, 3},
		{`SELECT sum(v * $2) FROM t ORDER BY $1 + 0`, 2},
		{`INSERT INTO t VALUES ($1, $4)`, 4},
	} {
		st, err := ParseStatement(tc.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.sql, err)
		}
		if got := stmtMaxParam(st); got != tc.want {
			t.Errorf("%q: max param = %d, want %d", tc.sql, got, tc.want)
		}
	}
}
