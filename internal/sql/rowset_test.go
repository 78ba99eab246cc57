package sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"madlib/internal/engine"
)

// formatValueRef is FormatValue as it stood before the append-form
// renderer replaced it: the reference the property test compares against.
func formatValueRef(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		if x {
			return "t"
		}
		return "f"
	case []float64:
		parts := make([]string, len(x))
		for i, f := range x {
			parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	return fmt.Sprintf("%v", v)
}

// TestAppendValueMatchesFormatValue is the encoder's byte-identity
// property: for every kind the append-form renderer — AppendValue over a
// boxed value, Chunk.AppendText over a typed lane, a validity lane, a
// boxed lane and a boxed-rows chunk — produces the reference text, after
// whatever the buffer already held.
func TestAppendValueMatchesFormatValue(t *testing.T) {
	long := make([]float64, 300)
	for i := range long {
		long[i] = float64(i) / 7
	}
	values := []any{
		nil,
		int64(0), int64(-1), int64(255), int64(256), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, math.Copysign(0, -1), 1.0, -1.5, 1e21, 1e-7, 123456789.125, 0.1 + 0.2,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		"", "a", "dé", "日本語 text", "with\x00nul", strings.Repeat("x", 5000),
		true, false,
		[]float64{}, []float64{1}, []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1e21}, long,
		struct{ A int }{3}, // no SQL type: the %v fallback
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		values = append(values, rng.Int63()-rng.Int63(), math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	prefix := []byte("keep:")
	check := func(what string, got []byte, null bool, v any) {
		t.Helper()
		if null != (v == nil) {
			t.Fatalf("%s(%#v): null = %v", what, v, null)
		}
		if want := "keep:" + formatValueRef(v); string(got) != want {
			t.Fatalf("%s(%#v) = %q, want %q", what, v, got, want)
		}
	}
	for _, v := range values {
		check("AppendValue", AppendValue(append([]byte(nil), prefix...), v), v == nil, v)
		if got := FormatValue(v); got != formatValueRef(v) {
			t.Fatalf("FormatValue(%#v) = %q, want %q", v, got, formatValueRef(v))
		}
		// The same value through every chunk layout: row 0 is NULL where
		// the layout can say so, row 1 is the value.
		var col chunkCol
		switch x := v.(type) {
		case int64:
			col = chunkCol{kind: ckInt, ints: []int64{0, x}, valid: []bool{false, true}}
		case float64:
			col = chunkCol{kind: ckFloat, floats: []float64{0, x}, valid: []bool{false, true}}
		case string:
			col = chunkCol{kind: ckStr, strs: []string{"", x}, valid: []bool{false, true}}
		case bool:
			col = chunkCol{kind: ckBool, bools: []bool{false, x}, valid: []bool{false, true}}
		default:
			col = chunkCol{kind: ckAny, boxed: []any{nil, v}}
		}
		layouts := map[string]*Chunk{
			"lane+valid": {n: 2, cols: []chunkCol{col}},
			"boxed lane": {n: 2, cols: []chunkCol{{kind: ckAny, boxed: []any{nil, v}}}},
		}
		if col.valid != nil {
			plain := col
			plain.valid = nil
			layouts["lane"] = &Chunk{n: 2, cols: []chunkCol{plain}}
		}
		for name, ch := range layouts {
			got, null := ch.AppendText(append([]byte(nil), prefix...), 1, 0)
			check(name, got, null, v)
			if name == "lane" {
				continue
			}
			if got, null := ch.AppendText(append([]byte(nil), prefix...), 0, 0); !null || string(got) != "keep:" {
				t.Fatalf("%s: NULL cell rendered %q (null=%v)", name, got, null)
			}
			// Boxing the layout gives the value back, bit for bit.
			rows := ch.appendBoxed(nil)
			if rows[0][0] != nil || formatValueRef(rows[1][0]) != formatValueRef(v) || valueKind(rows[1][0]) != valueKind(v) {
				t.Fatalf("%s: boxed to %#v, want [nil %#v]", name, rows, v)
			}
		}
	}
}

// newWideTable fills w(id, g, f, s) with n rows; several morsels per
// segment once n passes 4 x engine.MorselRows.
func newWideTable(t testing.TB, n int) *engine.DB {
	t.Helper()
	db := engine.Open(4)
	tbl, err := db.CreateTable("w", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int},
		{Name: "f", Kind: engine.Float}, {Name: "s", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(int64(i), int64(i%13), float64(i)/4, fmt.Sprintf("s%d", i%5)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestTypedChunksMatchOracle runs scans whose product is typed chunks —
// LIMITs that cut inside a chunk, at a chunk boundary and past the end,
// results spanning many morsels — and requires the boxed exit to equal
// the oracle mode's, which fills boxed lanes only.
func TestTypedChunksMatchOracle(t *testing.T) {
	db := newWideTable(t, 4*engine.MorselRows+4*900)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			batchSess, rowSess := NewSession(db), NewSession(db)
			rowSess.SetBatchExecution(false)
			for _, q := range []string{
				`SELECT id, g, f, s FROM w`,
				`SELECT id, s FROM w WHERE g < 4`,
				`SELECT id, f * 2, s FROM w LIMIT 0`,
				`SELECT id FROM w LIMIT 1`,
				fmt.Sprintf(`SELECT id, s FROM w LIMIT %d`, engine.MorselRows),
				fmt.Sprintf(`SELECT id, s FROM w LIMIT %d`, engine.MorselRows+1),
				fmt.Sprintf(`SELECT id, f FROM w WHERE g <> 3 LIMIT %d`, 3*engine.MorselRows-7),
				`SELECT id FROM w WHERE id < 0`,
				`SELECT id, s FROM w LIMIT 1000000`,
			} {
				runDiffQuery(t, batchSess, rowSess, q)
			}
			// The default mode's product really is typed: one columnar
			// chunk per surviving morsel, no boxed lane.
			sets, err := batchSess.ExecRowSets(context.Background(), `SELECT id, f, s FROM w WHERE g < 4`)
			if err != nil {
				t.Fatal(err)
			}
			chunks := sets[0].Chunks()
			if len(chunks) < 4 {
				t.Fatalf("%d chunks, want one per morsel", len(chunks))
			}
			for i := range chunks {
				for _, col := range chunks[i].cols {
					if !col.kind.typed() || col.boxed != nil {
						t.Fatalf("chunk %d holds a boxed lane: kind %v", i, col.kind)
					}
				}
			}
			if got, want := sets[0].ColumnTypes(), []string{"bigint", "double precision", "text"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("column types %v, want %v", got, want)
			}
		})
	}
}

// TestPreparedRangeSelectLowersNatively pins the per-execution scalar
// lowering: both comparisons of the bulk range select, `$1` and
// `$1 + 20000`, take the batch compare kernel, so no consumer of the
// statement runs a row closure.
func TestPreparedRangeSelectLowersNatively(t *testing.T) {
	db := newWideTable(t, 3000)
	s := NewSession(db)
	pl, err := s.planStmt(mustParseStmt(t, `SELECT id, g, f, s FROM w WHERE id >= $1 AND id < $1 + 20000`))
	if err != nil {
		t.Fatal(err)
	}
	sp := pl.(*scanPlan)
	if !sp.nativePred || sp.nativeItems != len(sp.items) {
		t.Fatalf("nativePred=%v nativeItems=%d of %d: the range select must lower natively", sp.nativePred, sp.nativeItems, len(sp.items))
	}
	lines := explainLines(s, pl)
	if want := "  lane: batch (vectorized filter + columnar projection)"; lines[1] != want {
		t.Fatalf("EXPLAIN lane line %q, want %q", lines[1], want)
	}
	// Other scalar shapes the kernel takes, and ones it must leave alone.
	for q, native := range map[string]bool{
		`SELECT id FROM w WHERE $1 * 2 + 1 > id`:   true,
		`SELECT id FROM w WHERE f <= -$1 / $2`:     true,
		`SELECT id FROM w WHERE id < abs($1)`:      false, // calls stay on the closure
		`SELECT id FROM w WHERE id + $1 < 10`:      false, // a lane mixed with a scalar
		`SELECT id FROM w WHERE $1 < $2`:           false, // no typed side
		`SELECT id FROM w WHERE s < $1 + 1`:        false, // text lane
		`SELECT id + $1 FROM w WHERE id < $1 + 10`: true,
	} {
		pl, err := s.planStmt(mustParseStmt(t, q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := pl.(*scanPlan).nativePred; got != native {
			t.Errorf("%s: nativePred = %v, want %v", q, got, native)
		}
	}
}

// TestScalarCompareMatchesRowLane compares the per-execution scalar
// kernel with the row closure it replaces over arguments of every type —
// NULL included, which only the wire's Bind can supply — in both operand
// orders: rows and error text must agree.
func TestScalarCompareMatchesRowLane(t *testing.T) {
	db := newWideTable(t, 3000)
	batchSess, rowSess := NewSession(db), NewSession(db)
	rowSess.SetBatchExecution(false)
	stmts := map[string]string{
		"right": `SELECT id, f FROM w WHERE id >= $1 AND id < $1 + 10`,
		"left":  `SELECT id FROM w WHERE $1 + 10 > id AND $1 <= id`,
		"float": `SELECT id FROM w WHERE f < $1 * 0.5`,
		"div":   `SELECT id FROM w WHERE id < 100 / $1`,
		"neg":   `SELECT id FROM w WHERE id < -$1`,
	}
	args := []any{int64(-5), int64(0), int64(2990), 1.5, math.NaN(), math.Inf(1), "nope", true, []float64{1}, nil}
	for name, text := range stmts {
		for _, sess := range []*Session{batchSess, rowSess} {
			mustExec(t, sess, fmt.Sprintf("PREPARE %s AS %s", name, text))
		}
		for _, arg := range args {
			bRes, bErr := batchSess.ExecutePreparedContext(context.Background(), name, []any{arg})
			rRes, rErr := rowSess.ExecutePreparedContext(context.Background(), name, []any{arg})
			if errText(bErr) != errText(rErr) {
				t.Fatalf("%s(%#v):\n  batch err: %v\n  row err:   %v", name, arg, bErr, rErr)
			}
			if bErr == nil && formatResult(bRes) != formatResult(rRes) {
				t.Fatalf("%s(%#v):\n--- batch ---\n%s--- row ---\n%s", name, arg, formatResult(bRes), formatResult(rRes))
			}
		}
	}
}

// TestCTASPlacementMatchesInsert requires CREATE TABLE AS to put every
// row where inserting the result row by row would: db.Rows reads
// segment-major, so equal Rows means equal per-segment placement.
func TestCTASPlacementMatchesInsert(t *testing.T) {
	db := newWideTable(t, 4*engine.MorselRows+1234)
	s := NewSession(db)
	for name, query := range map[string]string{
		"typed":   `SELECT id, g, f, s FROM w WHERE g <> 5`,
		"boxed":   `SELECT id, f, s FROM w WHERE g = 2 ORDER BY f DESC`,
		"grouped": `SELECT g, count(*) AS n, sum(f) AS total, min(s) AS lo FROM w GROUP BY g`,
		"empty":   `SELECT id, s FROM w WHERE id < 0`,
		"three":   `SELECT id, f FROM w WHERE id < 3`,
	} {
		mustExec(t, s, fmt.Sprintf(`CREATE TABLE ctas_%s AS %s`, name, query))
		got, err := db.Table("ctas_" + name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.CreateTable("ref_"+name, got.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range mustQuery(t, s, query).Rows {
			if err := want.Insert(row...); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(db.Rows(got), db.Rows(want)) {
			t.Fatalf("%s: CTAS placed rows differently from Insert", name)
		}
		if got.Count() != want.Count() || got.Version() != 1 {
			t.Fatalf("%s: count %d (want %d), version %d (want 1)", name, got.Count(), want.Count(), got.Version())
		}
		// The next INSERT continues the round-robin where CTAS left it.
		row := make([]any, len(got.Schema()))
		for i, c := range got.Schema() {
			row[i] = map[engine.Kind]any{engine.Int: int64(-1), engine.Float: -1.0, engine.String: "z"}[c.Kind]
		}
		for _, tbl := range []*engine.Table{got, want} {
			if err := tbl.Insert(row...); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(db.Rows(got), db.Rows(want)) {
			t.Fatalf("%s: an INSERT after CTAS landed on a different segment", name)
		}
	}
}

// TestCTASIsAtomic polls count(*) from a second session while CREATE
// TABLE AS statements run: the table either does not exist or holds
// every row, and a statement that fails on its last row (the LEFT JOIN's
// only unmatched key stores a NULL) never shows a table at all.
func TestCTASIsAtomic(t *testing.T) {
	const n = 4*engine.MorselRows + 500
	db := newWideTable(t, n)
	writer, reader := NewSession(db), NewSession(db)
	mustExec(t, writer, fmt.Sprintf(`CREATE TABLE most AS SELECT id FROM w WHERE id < %d`, n-1))
	for round := 0; round < 5; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := reader.Query(`SELECT count(*) FROM staged`)
				switch {
				case errors.Is(err, engine.ErrNoTable):
				case err != nil:
					t.Errorf("poll: %v", err)
					return
				case res.Rows[0][0] != int64(n):
					t.Errorf("poll saw a partial table: count(*) = %v, want %d", res.Rows[0][0], n)
					return
				}
			}
		}()
		_, err := writer.Exec(`CREATE TABLE staged AS SELECT w.id, most.id AS hit FROM w LEFT JOIN most ON w.id = most.id`)
		if err == nil || !strings.Contains(err.Error(), "NULL values cannot be stored") {
			t.Errorf("CTAS storing a NULL: err = %v", err)
		}
		if _, err := db.Table("staged"); !errors.Is(err, engine.ErrNoTable) {
			t.Errorf("failed CTAS left a table behind: %v", err)
		}
		mustExec(t, writer, `CREATE TABLE staged AS SELECT id, f, s FROM w`)
		close(stop)
		wg.Wait()
		mustExec(t, writer, `DROP TABLE staged`)
	}
}

// TestStorageColumnsNamesFailures pins how the storage sink reports a
// value it cannot store: prefixed with the label of its column, which a
// table-valued call's staged input sets to the call argument, never to
// the staged column's internal name.
func TestStorageColumnsNamesFailures(t *testing.T) {
	schema := engine.Schema{{Name: "_arg1", Kind: engine.Float}}
	label := func(int) string { return "bootstrap argument 1" }
	for _, tc := range []struct {
		val  any
		want string
	}{
		{"a", "sql: bootstrap argument 1: engine: value does not match column type: text value into double precision column"},
		{nil, "sql: bootstrap argument 1: NULL values cannot be stored (the engine has no NULL representation)"},
	} {
		rs := newRowSet([]string{"_arg1"}, nil, Chunk{n: 2, cols: []chunkCol{{kind: ckAny, boxed: []any{1.5, tc.val}}}})
		if _, err := rs.storageColumns(schema, label); err == nil || err.Error() != tc.want {
			t.Fatalf("%v: err = %v, want %s", tc.val, err, tc.want)
		}
	}
}
