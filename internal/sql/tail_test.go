package sql

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// finishSelect is the boxed output tail the aggregate, window,
// table-valued and FROM-less shapes ran before every shape ended in
// sortSpec.finish, kept as the reference TestOutputTailAgrees checks that
// tail against: DISTINCT over each row's first w cells (dedupeRows), then
// ORDER BY over the sort keys each row carries behind them as boxed key
// lanes, or else LIMIT.
func finishSelect(db *engine.DB, w int, rows [][]any, distinct bool, ord sortSpec) ([][]any, error) {
	if distinct {
		rows = dedupeRows(rows, w)
	}
	switch {
	case len(ord.desc) > 0:
		kc := boxedKeys(rows, w, len(ord.desc))
		perm, err := ord.perm(db, &kc)
		if err != nil {
			return nil, err
		}
		rows = appendAt(nil, rows, perm)
	case ord.limit >= 0 && int64(len(rows)) > ord.limit:
		rows = rows[:ord.limit]
	}
	for i, row := range rows {
		rows[i] = row[:w:w]
	}
	return rows, nil
}

// dedupeRows keeps the first occurrence of each row whose first w cells
// encode (appendValKey) to a key not seen before.
func dedupeRows(rows [][]any, w int) [][]any {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row[:w] {
			buf = appendValKey(buf, v)
		}
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out = append(out, row)
	}
	return out
}

// boxedKeys gathers cells from, from+1, … from+nk-1 of every row into
// one chunk of nk boxed key lanes.
func boxedKeys(rows [][]any, from, nk int) Chunk {
	c := boxedChunk(nk, len(rows))
	for k := range c.cols {
		for i, row := range rows {
			c.cols[k].boxed[i] = row[from+k]
		}
	}
	return c
}

// tailKey is one ORDER BY key as a query writes it: text names output
// column col, or, with col -1, is an expression the reference projects
// behind the items.
type tailKey struct {
	text string
	col  int
	desc bool
}

// tailCase is one SELECT shape: items, the clauses from the FROM on
// (empty for a FROM-less SELECT), the ORDER BY key lists to try and
// whether the shape admits DISTINCT.
type tailCase struct {
	items, from string
	distinct    bool
	keysets     [][]tailKey
}

// query renders the statement with the given tail; limit < 0 is none.
func (c tailCase) query(distinct bool, keys []tailKey, limit int) string {
	q := "SELECT "
	if distinct {
		q += "DISTINCT "
	}
	q += c.items + " " + c.from
	for k, key := range keys {
		if k == 0 {
			q += " ORDER BY "
		} else {
			q += ", "
		}
		q += key.text
		if key.desc {
			q += " DESC"
		}
	}
	if limit >= 0 {
		q += fmt.Sprintf(" LIMIT %d", limit)
	}
	return q
}

// baseRows runs the statement with no tail and with each expression key
// projected behind the items, and returns each row as its w output cells
// followed by its ORDER BY keys, the rows finishSelect reads.
func (c tailCase) baseRows(sess *Session, keys []tailKey) (rows [][]any, w int, err error) {
	items := c.items
	nExtra := 0
	for _, key := range keys {
		if key.col < 0 {
			items += ", " + key.text
			nExtra++
		}
	}
	res, err := sess.Query("SELECT " + items + " " + c.from)
	if err != nil {
		return nil, 0, err
	}
	w = len(res.Cols) - nExtra
	for _, r := range res.Rows {
		row, extra := append([]any(nil), r[:w]...), w
		for _, key := range keys {
			if key.col < 0 {
				row, extra = append(row, r[extra]), extra+1
			} else {
				row = append(row, r[key.col])
			}
		}
		rows = append(rows, row)
	}
	return rows, w, nil
}

// bitsOf renders rows with every cell's Go type and every float's bits,
// so that -0, 0 and NaN payloads compare apart.
func bitsOf(rows [][]any) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			switch x := v.(type) {
			case float64:
				fmt.Fprintf(&b, "f%x ", math.Float64bits(x))
			case []float64:
				b.WriteString("v[")
				for _, f := range x {
					fmt.Fprintf(&b, "%x,", math.Float64bits(f))
				}
				b.WriteString("] ")
			default:
				fmt.Fprintf(&b, "%T:%v ", v, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// newTailDB loads u, over twice engine.ParallelRowThreshold rows with
// duplicate keys, both float zeros, NaN and Vector values, and r, which
// covers only some of u's g values, so a LEFT JOIN pads with NULLs.
func newTailDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open(3)
	u, err := db.CreateTable("u", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int}, {Name: "f", Kind: engine.Float},
		{Name: "s", Kind: engine.String}, {Name: "v", Kind: engine.Vector},
	})
	if err != nil {
		t.Fatal(err)
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	floats := []float64{0, negZero, nan, 1.5, -2.25, 7}
	vecs := [][]float64{{1, 2}, {nan}, {negZero}, {0}, {1}}
	rng := rand.New(rand.NewSource(9))
	for id := 0; id < 2*engine.ParallelRowThreshold+777; id++ {
		err := u.Insert(int64(id), int64(rng.Intn(9)), floats[rng.Intn(len(floats))],
			fmt.Sprintf("s%d", rng.Intn(5)), vecs[rng.Intn(len(vecs))])
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := db.CreateTable("r", engine.Schema{
		{Name: "g", Kind: engine.Int}, {Name: "name", Kind: engine.String}, {Name: "w", Kind: engine.Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ {
		if err := r.Insert(int64(g), fmt.Sprintf("n%d", g%3), floats[g]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestOutputTailAgrees checks the one output tail (DISTINCT, ORDER BY,
// LIMIT over lanes) of every SELECT shape against the boxed reference
// tail applied to the same statement without them, bit for bit and
// error text included: scans (a LEFT JOIN with NULLs among them),
// grouped and ungrouped aggregates with HAVING, a window over more than
// engine.ParallelRowThreshold rows (so parallel runs write the shared
// lanes), FROM-less and table-valued SELECTs; ORDER BY by ordinal,
// alias, expression and DESC; LIMIT 0, 1, k < n and none; in default and
// oracle mode at GOMAXPROCS 1 and 4.
func TestOutputTailAgrees(t *testing.T) {
	db := newTailDB(t)
	key := func(text string, col int, desc bool) tailKey { return tailKey{text, col, desc} }
	cases := []tailCase{
		{items: "g, f AS x, s", from: "FROM u", distinct: true, keysets: [][]tailKey{
			{key("x", 1, true), key("3", 2, false), key("g", 0, false)},
			{key("-id", -1, false)},
			{key("f * 2", -1, true), key("1", 0, false)},
			{key("10 / (g - 4)", -1, false)},
		}},
		{items: "v, g % 3 AS m", from: "FROM u WHERE id % 4 = 1", distinct: true, keysets: [][]tailKey{
			{key("v", 0, false), key("m", 1, true)},
		}},
		{items: "u.id, r.name, r.w", from: "FROM u LEFT JOIN r ON u.g = r.g WHERE u.id % 5 = 0", keysets: [][]tailKey{
			{key("3", 2, true), key("1", 0, false)},
			{key("2", 1, false), key("u.f", -1, true), key("1", 0, true)},
		}},
		{items: "r.name, r.w", from: "FROM u LEFT JOIN r ON u.g = r.g", distinct: true, keysets: [][]tailKey{
			{key("2", 1, false), key("1", 0, true)},
		}},
		{items: "g, count(*) AS c, sum(f) AS sf, min(s)", from: "FROM u GROUP BY g HAVING count(*) > 900", distinct: true, keysets: [][]tailKey{
			{key("sf", 2, true), key("g", 0, false)},
			{key("max(id)", -1, true)},
			{key("c", 1, false), key("1", 0, true)},
			{key("1 / (min(g) - min(g))", -1, false)},
		}},
		{items: "f, count(*) % 2 AS odd", from: "FROM u GROUP BY f", distinct: true, keysets: [][]tailKey{
			{key("odd", 1, false), key("f", 0, true)},
		}},
		{items: "count(*) AS n, sum(f), max(s)", from: "FROM u HAVING count(*) > 0", distinct: true, keysets: [][]tailKey{
			{key("n", 0, false)},
		}},
		{items: "count(*), max(f)", from: "FROM u WHERE id < 0 HAVING count(*) > 0", keysets: [][]tailKey{
			{key("1", 0, false)},
		}},
		{items: "id, g, row_number() OVER (PARTITION BY g ORDER BY f, id) AS rn, sum(f) OVER (PARTITION BY g ORDER BY id) AS run", from: "FROM u", keysets: [][]tailKey{
			{key("rn", 2, true), key("id", 0, false)},
			{key("f", -1, false), key("1", 0, true)},
			{key("run", 3, false), key("s", -1, true), key("id", 0, false)},
		}},
		{items: "1 AS a, 'x' AS b, 2.5", distinct: true, keysets: [][]tailKey{
			{key("a", 0, false)},
			{key("3", 2, true)},
			{key("1 + 1", -1, false)},
		}},
		{items: "(madlib.profile()).*", from: "FROM u", keysets: [][]tailKey{
			{key("1", 0, true)},
			{key("mean", 6, true), key("column", 0, false)},
		}},
	}
	for _, procs := range []int{1, 4} {
		for _, oracle := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/oracle=%v", procs, oracle), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				sess := NewSession(db)
				sess.SetBatchExecution(!oracle)
				for _, c := range cases {
					for _, keys := range append([][]tailKey{nil}, c.keysets...) {
						rows, w, baseErr := c.baseRows(sess, keys)
						ord := sortSpec{}
						exprKey := false
						for _, k := range keys {
							ord.desc = append(ord.desc, k.desc)
							exprKey = exprKey || k.col < 0
						}
						for _, distinct := range []bool{false, true} {
							// DISTINCT sorts only by output columns.
							if distinct && (!c.distinct || exprKey) {
								continue
							}
							for _, limit := range []int{-1, 0, 1, 3} {
								q := c.query(distinct, keys, limit)
								res, err := sess.Query(q)
								ord.limit = int64(limit)
								var want [][]any
								wantErr := baseErr
								if wantErr == nil {
									want, wantErr = finishSelect(db, w, append([][]any(nil), rows...), distinct, ord)
								}
								if errText(err) != errText(wantErr) {
									t.Fatalf("%s: error %q, reference %q", q, errText(err), errText(wantErr))
								}
								if err != nil {
									continue
								}
								if got, want := bitsOf(res.Rows), bitsOf(want); got != want {
									t.Fatalf("%s\n--- got ---\n%s--- reference ---\n%s", q, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}
