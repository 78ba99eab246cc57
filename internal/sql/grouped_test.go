package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// refAcc is the reference fold of one aggregate argument in plain Go:
// the operations of the built-in accumulators, value by value.
type refAcc struct {
	rows, n      int64 // count(*), count(x)
	sum, sumSq   float64
	sumInt       int64
	intOnly      bool
	minF, maxF   float64
	minI, maxI   int64
	seenF, seenI bool
}

func (a *refAcc) add(v any) {
	a.rows++
	switch x := v.(type) {
	case float64:
		a.n++
		a.sum += x
		a.sumSq += x * x
		a.intOnly = false
		if !a.seenF || x < a.minF {
			a.minF = x
		}
		if !a.seenF || x > a.maxF {
			a.maxF = x
		}
		a.seenF = true
	case int64:
		a.n++
		f := float64(x)
		a.sumInt += x
		a.sum += f
		a.sumSq += f * f
		if !a.seenI || x < a.minI {
			a.minI = x
		}
		if !a.seenI || x > a.maxI {
			a.maxI = x
		}
		a.seenI = true
	}
}

// merge adds b, the same group's partial from a later morsel.
func (a *refAcc) merge(b *refAcc) {
	a.rows += b.rows
	a.n += b.n
	a.sum += b.sum
	a.sumSq += b.sumSq
	a.sumInt += b.sumInt
	a.intOnly = a.intOnly && b.intOnly
	if b.seenF && (!a.seenF || b.minF < a.minF) {
		a.minF = b.minF
	}
	if b.seenF && (!a.seenF || b.maxF > a.maxF) {
		a.maxF = b.maxF
	}
	if b.seenI && (!a.seenI || b.minI < a.minI) {
		a.minI = b.minI
	}
	if b.seenI && (!a.seenI || b.maxI > a.maxI) {
		a.maxI = b.maxI
	}
	a.seenF, a.seenI = a.seenF || b.seenF, a.seenI || b.seenI
}

// finals renders count(*), count, sum, avg, min, max, variance and
// stddev bit-exactly.
func (a *refAcc) finals() []string {
	out := []string{renderFinal(a.rows, nil), renderFinal(a.n, nil)}
	if a.n == 0 {
		return append(out, "<nil> <nil>", "<nil> <nil>", "<nil> <nil>", "<nil> <nil>", "<nil> <nil>", "<nil> <nil>")
	}
	var sum, minV, maxV any = a.sum, a.minF, a.maxF
	if a.intOnly {
		sum, minV, maxV = a.sumInt, a.minI, a.maxI
	}
	out = append(out, renderFinal(sum, nil), renderFinal(a.sum/float64(a.n), nil),
		renderFinal(minV, nil), renderFinal(maxV, nil))
	if a.n < 2 {
		return append(out, "<nil> <nil>", "<nil> <nil>")
	}
	mean := a.sum / float64(a.n)
	variance := (a.sumSq - float64(a.n)*mean*mean) / float64(a.n-1)
	return append(out, renderFinal(variance, nil), renderFinal(math.Sqrt(variance), nil))
}

// refGroup is one group of the reference: its first row's key values
// and one fold per argument.
type refGroup struct {
	key  []string
	accs []*refAcc
}

// groupedCase is one GROUP BY shape: the SQL keys, FROM and WHERE, the
// float and int arguments, and the same names in the input table's
// schema for the reference (a LEFT JOIN's materialization names the
// right side's columns bare, and NULL-pads them where __matched is
// false).
type groupedCase struct {
	keys, refKeys []string
	from, where   string
	x, i          string
	refX, refI    string
	keep          func(r engine.Row, schema engine.Schema) bool
}

func (c groupedCase) query() string {
	items := append([]string(nil), c.keys...)
	for _, arg := range []string{c.x, c.i} {
		items = append(items, "count(*)", "count("+arg+")")
		for _, fn := range []string{"sum", "avg", "min", "max", "variance", "stddev"} {
			items = append(items, fn+"("+arg+")")
		}
	}
	q := "SELECT " + strings.Join(items, ", ") + " FROM " + c.from
	if c.where != "" {
		q += " WHERE " + c.where
	}
	return q + " GROUP BY " + strings.Join(c.keys, ", ")
}

// canonKey is a group's identity: -0 and +0 are one key, as are all
// NaNs.
func canonKey(vals []any) string {
	var sb strings.Builder
	for _, v := range vals {
		if f, ok := v.(float64); ok {
			switch {
			case f == 0:
				v = 0.0
			case f != f:
				v = "NaN"
			}
		}
		fmt.Fprintf(&sb, "%T:%v|", v, v)
	}
	return sb.String()
}

// reference folds the case over input's morsels: each morsel folds its
// rows into per-group partials in row order, and the partials merge
// into the result left to right in morsel order, a group keeping the
// key values of its first row. In a LEFT JOIN's materialization the
// columns from leftWidth on are NULL where the row found no match.
func (c groupedCase) reference(t *testing.T, input *engine.Table, leftWidth int) map[string]*refGroup {
	t.Helper()
	schema := input.Schema()
	idx := func(name string) int {
		ci := schema.Index(name)
		if ci < 0 {
			t.Fatalf("no column %q in %v", name, schema)
		}
		return ci
	}
	keyCols := make([]int, len(c.refKeys))
	for k, name := range c.refKeys {
		keyCols[k] = idx(name)
	}
	argCols := []int{idx(c.refX), idx(c.refI)}
	matched := schema.Index(engine.MatchedCol)
	out := map[string]*refGroup{}
	for _, m := range input.Morsels() {
		part, order := map[string]*refGroup{}, []string(nil)
		for j := 0; j < m.Len(); j++ {
			r := m.Row(j)
			if c.keep != nil && !c.keep(r, schema) {
				continue
			}
			vals := make([]any, len(keyCols))
			for k, ci := range keyCols {
				vals[k] = rowValue(schema, &r, ci)
			}
			ck := canonKey(vals)
			g := part[ck]
			if g == nil {
				g = &refGroup{accs: []*refAcc{{intOnly: true}, {intOnly: true}}}
				for _, v := range vals {
					g.key = append(g.key, renderFinal(v, nil))
				}
				part[ck] = g
				order = append(order, ck)
			}
			for a, ci := range argCols {
				var v any
				if matched < 0 || ci < leftWidth || r.Bool(matched) {
					v = rowValue(schema, &r, ci)
				}
				g.accs[a].add(v)
			}
		}
		for _, ck := range order {
			if g := out[ck]; g != nil {
				for a := range g.accs {
					g.accs[a].merge(part[ck].accs[a])
				}
			} else {
				out[ck] = part[ck]
			}
		}
	}
	return out
}

// TestGroupedFoldAgrees checks every built-in aggregate of the grouped
// executor against the reference fold, bit for bit: keys of every lane
// kind (int, float with both zeros and NaN, text, bool, composites, the
// preserved side of a LEFT JOIN whose arguments are NULL-padded, and an
// int key of more distinct values than a morsel has rows, whose merged
// table outgrows a morsel's worth of groups on the larger tables), int
// and float arguments, a WHERE, on one morsel, on 3*MorselRows+13 rows
// and on more than 40 morsels, in default and oracle mode, sequentially
// and on the worker pool.
func TestGroupedFoldAgrees(t *testing.T) {
	floatKeys := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, 7, math.Inf(1), -3.5}
	iAbove := func(r engine.Row, schema engine.Schema) bool { return r.Int(schema.Index("i")) > -15 }
	cases := []groupedCase{
		{keys: []string{"g"}},
		{keys: []string{"h"}},
		{keys: []string{"g"}, where: "i > -15", keep: iAbove},
		{keys: []string{"f"}},
		{keys: []string{"s"}},
		{keys: []string{"b"}},
		{keys: []string{"g", "s"}},
		{keys: []string{"b", "f"}},
		{keys: []string{"t.s"}, refKeys: []string{"s"}, from: "t LEFT JOIN r ON t.g = r.g",
			x: "r.w", i: "r.k", refX: "w", refI: "k"},
	}
	for ci := range cases {
		c := &cases[ci]
		if c.from == "" {
			c.from, c.x, c.i, c.refX, c.refI = "t", "x", "i", "x", "i"
		}
		if c.refKeys == nil {
			c.refKeys = c.keys
		}
	}
	for _, size := range []struct {
		segments, rows int
	}{
		{1, 1000},
		{1, 3*engine.MorselRows + 13},
		{4, 42 * engine.MorselRows},
	} {
		db := engine.Open(size.segments)
		tbl, err := db.CreateTable("t", engine.Schema{
			{Name: "id", Kind: engine.Int}, {Name: "h", Kind: engine.Int},
			{Name: "g", Kind: engine.Int}, {Name: "b", Kind: engine.Bool},
			{Name: "f", Kind: engine.Float}, {Name: "s", Kind: engine.String},
			{Name: "i", Kind: engine.Int}, {Name: "x", Kind: engine.Float},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(size.rows)))
		for id := 0; id < size.rows; id++ {
			x := rng.NormFloat64() * 1e3
			switch rng.Intn(50) {
			case 0:
				x = math.Copysign(0, -1)
			case 1:
				x = 1e16
			}
			err := tbl.Insert(int64(id), int64(id%(engine.MorselRows+900)), int64(rng.Intn(10)), rng.Intn(3) == 0,
				floatKeys[rng.Intn(len(floatKeys))], fmt.Sprintf("s%d", rng.Intn(6)),
				int64(rng.Intn(40)-20), x)
			if err != nil {
				t.Fatal(err)
			}
		}
		if size.rows > 40*engine.MorselRows && len(tbl.Morsels()) < 40 {
			t.Fatalf("%d morsels, want at least 40", len(tbl.Morsels()))
		}
		r, err := db.CreateTable("r", engine.Schema{
			{Name: "g", Kind: engine.Int}, {Name: "w", Kind: engine.Float}, {Name: "k", Kind: engine.Int},
		})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 7; g++ {
			if err := r.Insert(int64(g), floatKeys[g]+0.25, int64(g*g-9)); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]map[string]*refGroup, len(cases))
		for ci, c := range cases {
			input := tbl
			if c.from != "t" {
				if input, _, err = db.Join(context.Background(), tbl, "g", r, "g", true); err != nil {
					t.Fatal(err)
				}
			}
			want[ci] = c.reference(t, input, len(tbl.Schema()))
		}
		for _, procs := range []int{1, 4} {
			for _, oracle := range []bool{false, true} {
				t.Run(fmt.Sprintf("rows=%d/procs=%d/oracle=%v", size.rows, procs, oracle), func(t *testing.T) {
					withGOMAXPROCS(t, procs)
					sess := NewSession(db)
					sess.SetBatchExecution(!oracle)
					for ci, c := range cases {
						checkGrouped(t, sess, c, want[ci])
					}
				})
			}
		}
	}
}

// checkGrouped runs the case and compares every group's key values and
// finals with the reference's, bit for bit.
func checkGrouped(t *testing.T, sess *Session, c groupedCase, want map[string]*refGroup) {
	t.Helper()
	q := c.query()
	res, err := sess.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%s: %d groups, reference %d", q, len(res.Rows), len(want))
	}
	nk := len(c.keys)
	for _, row := range res.Rows {
		ck := canonKey(row[:nk])
		g := want[ck]
		if g == nil {
			t.Fatalf("%s: group %v is not in the reference", q, row[:nk])
		}
		var got, ref []string
		for _, v := range row {
			got = append(got, renderFinal(v, nil))
		}
		ref = append(ref, g.key...)
		for _, a := range g.accs {
			ref = append(ref, a.finals()...)
		}
		if strings.Join(got, ", ") != strings.Join(ref, ", ") {
			t.Fatalf("%s: group %s\n got       %v\n reference %v", q, ck, got, ref)
		}
	}
}
