package sql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// TestWindowFoldUnderConcurrentInserts runs a window query while a
// second session appends to its table. The gather and the fold read
// storage under one read latch on the table, so the race detector stays
// quiet, and every result is a consistent table prefix: within each
// partition the running sum adds exactly the row's own value.
func TestWindowFoldUnderConcurrentInserts(t *testing.T) {
	db := engine.Open(4)
	reader, writer := NewSession(db), NewSession(db)
	mustExec(t, reader, `CREATE TABLE w (g bigint, v double precision)`)
	tbl, err := db.Table("w")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2000
	for i := 0; i < seed; i++ {
		if err := tbl.Insert(int64(i%7), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, writer, `PREPARE ins AS INSERT INTO w VALUES ($1, $2)`)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := seed; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := writer.ExecutePreparedContext(context.Background(), "ins", []any{int64(i % 7), float64(i) + 0.5}); err != nil {
				done <- err
				return
			}
		}
	}()
	for q := 0; q < 20; q++ {
		r := mustQuery(t, reader, `SELECT g, v, sum(v) OVER (PARTITION BY g ORDER BY v) FROM w`)
		if len(r.Rows) < seed {
			t.Fatalf("query %d: %d rows, want at least %d", q, len(r.Rows), seed)
		}
		for i, row := range r.Rows {
			want := row[1].(float64)
			if i > 0 && r.Rows[i-1][0] == row[0] {
				want += r.Rows[i-1][2].(float64)
			}
			if row[2] != want {
				t.Fatalf("query %d row %d: running sum %v, want %v", q, i, row[2], want)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWindowErrorOrder runs a window whose argument fails in every
// partition but the first. The error is the earliest failing row's in
// the default output order (partition g = 2, the first in window
// order) on every run, whether the partitions fold in one run or in
// parallel runs on the worker pool.
func TestWindowErrorOrder(t *testing.T) {
	withGOMAXPROCS(t, 4)
	for _, n := range []int{400, 3 * engine.ParallelRowThreshold} {
		db := engine.Open(4)
		sess := NewSession(db)
		mustExec(t, sess, `CREATE TABLE d (g bigint, i bigint, v double precision[])`)
		tbl, err := db.Table("d")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tbl.Insert(int64(2+i%16), int64(i), []float64{1}); err != nil {
				t.Fatal(err)
			}
		}
		const q = `SELECT g, sum(array_get(v, g)) OVER (PARTITION BY g ORDER BY i) FROM d`
		const want = "sql: array_get: index 2 out of range 1..1"
		for run := 0; run < 50; run++ {
			if _, err := sess.Query(q); err == nil || err.Error() != want {
				t.Fatalf("%d rows, run %d: error %v, want %s", n, run, err, want)
			}
		}
	}
}

// windowCase is one window shape over newOrderDB's tables: the
// PARTITION BY expressions, the OVER-ORDER BY keys, the argument of
// count, sum and avg, and the FROM clause (with its WHERE).
type windowCase struct {
	part []string
	ord  []orderCaseKey
	arg  string
	from string
}

// query renders the window statement: the keys, every supported
// window function over one OVER clause, then o.id, in the default
// output order.
func (c windowCase) query() string {
	over := "OVER ("
	if len(c.part) > 0 {
		over += "PARTITION BY " + strings.Join(c.part, ", ") + " "
	}
	keys := make([]string, len(c.ord))
	for k, key := range c.ord {
		keys[k] = key.text()
	}
	over += "ORDER BY " + strings.Join(keys, ", ") + ")"
	items := c.keyItems()
	for _, fn := range []string{"row_number()", "rank()", "count(" + c.arg + ")", "count(*)", "sum(" + c.arg + ")", "avg(" + c.arg + ")"} {
		items = append(items, fn+" "+over)
	}
	return "SELECT " + strings.Join(append(items, "o.id"), ", ") + " FROM " + c.from
}

func (c windowCase) keyItems() []string {
	items := append([]string(nil), c.part...)
	for _, key := range c.ord {
		items = append(items, key.expr)
	}
	return items
}

// reference answers the window statement from the plain rows: it sorts
// them by partition keys, then order keys, with sort.SliceStable and
// compareOrderKeys, and folds each partition in plain Go.
func (c windowCase) reference(t *testing.T, sess *Session) string {
	t.Helper()
	np, nk := len(c.part), len(c.part)+len(c.ord)
	in, err := sess.Query("SELECT " + strings.Join(append(c.keyItems(), c.arg, "o.id"), ", ") + " FROM " + c.from)
	if err != nil {
		t.Fatal(err)
	}
	rows := in.Rows
	// cmpKeys compares keys [from, to) of rows a and b in their
	// directions.
	cmpKeys := func(a, b []any, from, to int) int {
		for k := from; k < to; k++ {
			cmp, err := compareOrderKeys(a[k], b[k])
			if err != nil {
				t.Fatal(err)
			}
			if k >= np && c.ord[k-np].desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp
			}
		}
		return 0
	}
	sort.SliceStable(rows, func(a, b int) bool { return cmpKeys(rows[a], rows[b], 0, nk) < 0 })
	out := &Result{Cols: make([]string, nk+7)}
	var pos, rank, count, countStar, sumInt int64
	var sum float64
	intOnly := true
	for i, row := range rows {
		if i == 0 || cmpKeys(rows[i-1], row, 0, np) != 0 {
			pos, count, countStar, sumInt, sum, intOnly = 0, 0, 0, 0, 0, true
		}
		pos++
		if pos == 1 || cmpKeys(rows[i-1], row, np, nk) != 0 {
			rank = pos
		}
		countStar++
		v := row[nk]
		if v != nil {
			count++
			f, _ := toFloat(v)
			sum += f
			if n, ok := v.(int64); ok {
				sumInt += n
			} else {
				intOnly = false
			}
		}
		var s, avg any
		switch {
		case count == 0:
		case intOnly:
			s, avg = sumInt, sum/float64(count)
		default:
			s, avg = sum, sum/float64(count)
		}
		out.Rows = append(out.Rows, append(row[:nk:nk], pos, rank, count, countStar, s, avg, row[nk+1]))
	}
	return formatResult(out)
}

// TestWindowFoldAgrees checks every window function against a plain Go
// fold over the sorted boxed rows, in the default output order:
// partition keys of every lane kind (int, text, a float with both
// zeros and NaN, a NULL-padded LEFT JOIN column), one partition per
// row, rank peers, DESC order keys and count(x) over NULLs, in default
// and oracle mode, sequentially and on the worker pool.
func TestWindowFoldAgrees(t *testing.T) {
	db := newOrderDB(t)
	const join = "o LEFT JOIN r ON o.g = r.g"
	cases := []windowCase{
		{part: []string{"o.g"}, ord: []orderCaseKey{expr("o.i", false)}, arg: "o.f", from: "o"},
		{part: []string{"o.s"}, ord: []orderCaseKey{expr("o.f", true), expr("o.id", false)}, arg: "o.i", from: "o"},
		{part: []string{"o.f"}, ord: []orderCaseKey{expr("o.id", false)}, arg: "o.i", from: "o"},
		{part: []string{"r.name"}, ord: []orderCaseKey{expr("o.i", false)}, arg: "r.w", from: join + " WHERE o.id % 3 = 0"},
		{part: []string{"r.w", "o.s"}, ord: []orderCaseKey{expr("r.name", true)}, arg: "r.g", from: join},
		{part: []string{"o.id"}, ord: []orderCaseKey{expr("o.i", false)}, arg: "o.f", from: "o WHERE o.id % 2 = 0"},
		{part: []string{"o.g"}, ord: []orderCaseKey{expr("o.s", false)}, arg: "o.f * 2", from: "o"},
		{part: []string{"o.s"}, ord: []orderCaseKey{expr("o.g", true), expr("o.i", true)}, arg: "o.g", from: "o"},
		{ord: []orderCaseKey{expr("o.f", true)}, arg: "o.i", from: "o WHERE o.i > 5"},
	}
	for _, procs := range []int{1, 4} {
		for _, oracle := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/oracle=%v", procs, oracle), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				sess := NewSession(db)
				sess.SetBatchExecution(!oracle)
				for _, c := range cases {
					q := c.query()
					res, err := sess.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if got, want := formatResult(&Result{Rows: res.Rows, Cols: make([]string, len(res.Cols))}), c.reference(t, sess); got != want {
						t.Fatalf("%s\n--- got ---\n%s\n--- reference ---\n%s", q, got, want)
					}
				}
			})
		}
	}
}
