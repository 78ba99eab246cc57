package sql

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// newOrderDB loads the tables TestOrderByLanesAgree sorts: o has
// duplicate int, float and text keys, floats with both zeros and NaN,
// and more than twice the parallel threshold's rows, so the scan gathers
// many morsel chunks and a full sort on the worker pool runs the chunked
// parallel path; r covers
// only some of o's g values, so a LEFT JOIN pads the rest with NULLs.
func newOrderDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open(3)
	o, err := db.CreateTable("o", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int}, {Name: "i", Kind: engine.Int},
		{Name: "f", Kind: engine.Float}, {Name: "s", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, 7, math.Inf(1)}
	rng := rand.New(rand.NewSource(5))
	for id := 0; id < 2*engine.ParallelRowThreshold+1904; id++ {
		err := o.Insert(int64(id), int64(rng.Intn(10)), int64(rng.Intn(40)-20),
			floats[rng.Intn(len(floats))], fmt.Sprintf("s%d", rng.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := db.CreateTable("r", engine.Schema{
		{Name: "g", Kind: engine.Int}, {Name: "w", Kind: engine.Float}, {Name: "name", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 7; g++ {
		if err := r.Insert(int64(g), floats[g%len(floats)], fmt.Sprintf("n%d", g%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// orderCase is one statement shape: SELECT [DISTINCT] items FROM from,
// ordered by keys. A key is an output column (col >= 0, written as its
// ordinal) or an expression that is not projected.
type orderCase struct {
	distinct    bool
	items, from string
	keys        []orderCaseKey
}

func (c orderCase) selectList(items string) string {
	if c.distinct {
		return "SELECT DISTINCT " + items
	}
	return "SELECT " + items
}

type orderCaseKey struct {
	col  int
	expr string
	desc bool
}

func col(i int, desc bool) orderCaseKey     { return orderCaseKey{col: i, desc: desc} }
func expr(e string, desc bool) orderCaseKey { return orderCaseKey{col: -1, expr: e, desc: desc} }
func (k orderCaseKey) text() (s string) {
	if s = k.expr; k.col >= 0 {
		s = fmt.Sprint(k.col + 1)
	}
	if k.desc {
		s += " DESC"
	}
	return s
}

// query renders the ordered statement, limit < 0 meaning no LIMIT.
func (c orderCase) query(limit int) string {
	keys := make([]string, len(c.keys))
	for k, key := range c.keys {
		keys[k] = key.text()
	}
	q := c.selectList(c.items) + " FROM " + c.from
	if len(keys) > 0 {
		q += " ORDER BY " + strings.Join(keys, ", ")
	}
	if limit >= 0 {
		q += fmt.Sprintf(" LIMIT %d", limit)
	}
	return q
}

// reference answers the ordered statement, of width output columns,
// without ORDER BY or LIMIT: the plain statement with its expression
// keys projected behind the items, in the order it emits, sorted by
// sort.SliceStable over the boxed rows with compareOrderKeys.
func (c orderCase) reference(t *testing.T, sess *Session, width int) *Result {
	t.Helper()
	w, items := width, c.items
	cells := make([]int, len(c.keys))
	for k, key := range c.keys {
		cells[k] = key.col
		if key.col < 0 {
			items += ", " + key.expr
			cells[k] = w
			w++
		}
	}
	res, err := sess.Query(c.selectList(items) + " FROM " + c.from)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	sort.SliceStable(rows, func(a, b int) bool {
		for k, key := range c.keys {
			cmp, err := compareOrderKeys(rows[a][cells[k]], rows[b][cells[k]])
			if err != nil {
				t.Fatal(err)
			}
			if key.desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	for i := range rows {
		rows[i] = rows[i][:width]
	}
	return &Result{Cols: res.Cols[:width], Rows: rows}
}

// TestOrderByLanesAgree checks ORDER BY and ORDER BY … LIMIT over typed
// key lanes, boxed key lanes and the bounded heap against the
// reference sort, in default and oracle mode, sequentially and on the
// worker pool, over scan, aggregate and window shapes.
func TestOrderByLanesAgree(t *testing.T) {
	db := newOrderDB(t)
	const join = "o LEFT JOIN r ON o.g = r.g"
	cases := []orderCase{
		{items: "id, f, s", from: "o WHERE i > 0"}, // LIMIT alone keeps table order
		{distinct: true, items: "g, s", from: "o"},
		{distinct: true, items: "s, f", from: "o", keys: []orderCaseKey{col(1, true), col(0, false)}},
		{items: "id, s", from: "o", keys: []orderCaseKey{expr("f", false), col(1, true)}},
		{items: "id, g, f", from: "o", keys: []orderCaseKey{col(2, true), col(1, false)}},
		{items: "id, s, i", from: "o", keys: []orderCaseKey{expr("-i", false), col(1, true), expr("f * 2", true)}},
		{items: "o.id, r.name, r.w", from: join, keys: []orderCaseKey{col(2, true), col(1, false)}},
		{items: "o.id, r.w", from: join, keys: []orderCaseKey{expr("r.name", false), col(1, false)}},
		{items: "g, count(*) AS c, sum(f) AS sf", from: "o GROUP BY g", keys: []orderCaseKey{col(2, true), col(0, false)}},
		{items: "s, count(*) AS c", from: "o GROUP BY s", keys: []orderCaseKey{expr("max(i)", true), col(0, true)}},
		{items: "i, min(f) AS lo", from: "o GROUP BY i", keys: []orderCaseKey{col(1, false), expr("count(*)", true)}},
		{items: "o.g, count(r.name) AS c, max(r.w) AS m", from: join + " GROUP BY o.g", keys: []orderCaseKey{col(2, false), col(0, true)}},
		{items: "id, g, row_number() OVER (PARTITION BY g ORDER BY f, id) AS rn", from: "o WHERE id % 5 = 0", keys: []orderCaseKey{col(2, true), expr("f", false)}},
		{items: "o.id, r.w, rank() OVER (PARTITION BY o.g ORDER BY r.w DESC) AS rk", from: join + " WHERE o.id % 5 = 0", keys: []orderCaseKey{col(1, false), col(2, false)}},
		{items: "s, sum(f) OVER (PARTITION BY s ORDER BY i) AS run", from: "o WHERE id % 5 = 1", keys: []orderCaseKey{col(1, true), expr("i", false)}},
	}
	for _, procs := range []int{1, 4} {
		for _, oracle := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/oracle=%v", procs, oracle), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				sess := NewSession(db)
				sess.SetBatchExecution(!oracle)
				for _, c := range cases {
					var ref *Result
					for _, limit := range []int{-1, 0, 1, 7, 100000} {
						q := c.query(limit)
						res, err := sess.Query(q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						if ref == nil {
							ref = c.reference(t, sess, len(res.Cols))
						}
						want := *ref
						if limit >= 0 && limit < len(want.Rows) {
							want.Rows = want.Rows[:limit]
						}
						if got, want := formatResult(res), formatResult(&want); got != want {
							t.Fatalf("%s\n--- got ---\n%s\n--- reference ---\n%s", q, got, want)
						}
					}
				}
			})
		}
	}
}
