package sql

// Regression tests for ordering and literal correctness:
//
//   - compareValues must compare int64 pairs exactly — widening through
//     float64 conflates values that differ only below 2^53 precision.
//   - integer literals at the edges of int64 must stay exact (min int64
//     reachable via a folded unary minus) and out-of-range integers must
//     error instead of silently becoming floats.
//   - ORDER BY places NULLs per the Postgres default: LAST ascending,
//     FIRST descending.

import (
	"strings"
	"testing"
)

func TestOrderByInt64ExactAboveFloatPrecision(t *testing.T) {
	s := newSession(t)
	// 2^53 = 9007199254740992; the three middle values are
	// indistinguishable after float64 widening.
	mustExec(t, s, `
		CREATE TABLE big (v bigint);
		INSERT INTO big VALUES (9007199254740993), (9007199254740992),
			(9007199254740994), (-9007199254740993), (-9007199254740992);
	`)
	r := mustQuery(t, s, `SELECT v FROM big ORDER BY v`)
	want := []int64{-9007199254740993, -9007199254740992,
		9007199254740992, 9007199254740993, 9007199254740994}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(want))
	}
	for i, w := range want {
		if got := r.Rows[i][0].(int64); got != w {
			t.Fatalf("row %d = %d, want %d", i, got, w)
		}
	}
	r = mustQuery(t, s, `SELECT v FROM big ORDER BY v DESC LIMIT 2`)
	if r.Rows[0][0].(int64) != 9007199254740994 || r.Rows[1][0].(int64) != 9007199254740993 {
		t.Fatalf("desc rows = %v", r.Rows)
	}
	// DISTINCT must not conflate values equal only after float widening.
	r = mustQuery(t, s, `SELECT DISTINCT v FROM big ORDER BY v`)
	if len(r.Rows) != 5 {
		t.Fatalf("distinct rows = %d, want 5", len(r.Rows))
	}
}

func TestCompareValuesInt64Exact(t *testing.T) {
	a, b := int64(9007199254740993), int64(9007199254740992)
	if c, err := compareValues(a, b); err != nil || c != 1 {
		t.Fatalf("compareValues(%d, %d) = %d, %v; want 1", a, b, c, err)
	}
	if c, err := compareValues(b, a); err != nil || c != -1 {
		t.Fatalf("compareValues(%d, %d) = %d, %v; want -1", b, a, c, err)
	}
	// Mixed int/float still widens.
	if c, err := compareValues(int64(2), 2.5); err != nil || c != -1 {
		t.Fatalf("mixed compare = %d, %v; want -1", c, err)
	}
}

func TestMinInt64LiteralExact(t *testing.T) {
	s := newSession(t)
	r := mustQuery(t, s, `SELECT -9223372036854775808`)
	v, ok := r.Rows[0][0].(int64)
	if !ok || v != -9223372036854775808 {
		t.Fatalf("min int64 literal = %T %v, want exact int64", r.Rows[0][0], r.Rows[0][0])
	}
	// Double negation still routes through Unary and stays integral.
	r = mustQuery(t, s, `SELECT - -42`)
	if v, ok := r.Rows[0][0].(int64); !ok || v != 42 {
		t.Fatalf("- -42 = %T %v", r.Rows[0][0], r.Rows[0][0])
	}
	// Round-trip storage keeps the exact value.
	mustExec(t, s, `CREATE TABLE edge (v bigint); INSERT INTO edge VALUES (-9223372036854775808), (9223372036854775807)`)
	r = mustQuery(t, s, `SELECT v FROM edge ORDER BY v`)
	if r.Rows[0][0].(int64) != -9223372036854775808 || r.Rows[1][0].(int64) != 9223372036854775807 {
		t.Fatalf("edge rows = %v", r.Rows)
	}
}

func TestOutOfRangeIntegerLiteralErrors(t *testing.T) {
	s := newSession(t)
	for _, q := range []string{
		`SELECT 9223372036854775808`,
		`SELECT -9223372036854775809`,
		`SELECT 99999999999999999999999999`,
	} {
		_, err := s.Query(q)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: err = %v, want out-of-range error", q, err)
		}
	}
	// Floats with exponents are unaffected.
	r := mustQuery(t, s, `SELECT 1e300`)
	if v, ok := r.Rows[0][0].(float64); !ok || v != 1e300 {
		t.Fatalf("1e300 = %T %v", r.Rows[0][0], r.Rows[0][0])
	}
}

func TestOrderByNullPlacement(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE d (id bigint, name text);
		CREATE TABLE j (id bigint, who text);
		INSERT INTO d VALUES (1, 'eng'), (2, 'ops'), (3, 'hr');
		INSERT INTO j VALUES (1, 'ann'), (2, 'bob');
	`)
	// Ascending: NULL last.
	r := mustQuery(t, s, `SELECT j.who FROM d LEFT JOIN j ON d.id = j.id ORDER BY j.who`)
	if r.Rows[0][0] != "ann" || r.Rows[1][0] != "bob" || r.Rows[2][0] != nil {
		t.Fatalf("asc rows = %v, want NULL last", r.Rows)
	}
	// Descending: NULL first.
	r = mustQuery(t, s, `SELECT j.who FROM d LEFT JOIN j ON d.id = j.id ORDER BY j.who DESC`)
	if r.Rows[0][0] != nil || r.Rows[1][0] != "bob" || r.Rows[2][0] != "ann" {
		t.Fatalf("desc rows = %v, want NULL first", r.Rows)
	}
}

func TestCompareOrderKeysNullLargest(t *testing.T) {
	if c, _ := compareOrderKeys(nil, nil); c != 0 {
		t.Fatalf("nil,nil = %d", c)
	}
	if c, _ := compareOrderKeys(nil, int64(1)); c != 1 {
		t.Fatalf("nil,1 = %d, want 1 (NULL sorts largest)", c)
	}
	if c, _ := compareOrderKeys(int64(1), nil); c != -1 {
		t.Fatalf("1,nil = %d, want -1", c)
	}
}

func TestSortRowsStopsAfterComparisonError(t *testing.T) {
	s := newSession(t)
	// One boxed output column of mixed kinds, sorted by itself.
	rs := newRowSet([]string{"k"}, nil, Chunk{n: 4, cols: []chunkCol{{kind: ckAny, boxed: []any{int64(1), "x", int64(2), true}}}})
	err := sortSpec{desc: []bool{false}, limit: -1}.finish(s.DB(), rs, false)
	if err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Fatalf("err = %v, want comparison error", err)
	}
}
