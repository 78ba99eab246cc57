package main

import (
	"fmt"
	"math/rand"
	"sort"

	"madlib/internal/engine"
	"madlib/internal/pgwire"
)

// factsData is the analyst's fact table and its dimension, kept as Go
// slices so that expected answers never touch the engine. v is held in
// hundredths. The dimension lacks keys 900..999, so a tenth of the fact
// rows have no match and LEFT JOIN has NULLs to produce.
type factsData struct {
	n       int
	g, k, V []int
	label   []string
	// hashTo[i] is the checksum of rows 0..i-1 of "SELECT id, g, v, label".
	hashTo []uint64
}

const (
	factGroups = 64
	dimKeys    = 900
	dimRegions = 10
)

func (f *factsData) v(i int) float64 { return float64(f.V[i]) / 100 }

func newFacts(seed int64, scale int) *factsData {
	n := 200_000 / scale
	rng := rand.New(rand.NewSource(seed))
	f := &factsData{n: n, g: make([]int, n), k: make([]int, n), V: make([]int, n),
		label: make([]string, n), hashTo: make([]uint64, n+1)}
	for i := 0; i < n; i++ {
		f.g[i], f.k[i], f.V[i] = rng.Intn(factGroups), rng.Intn(1000), rng.Intn(100_000)
		f.label[i] = fmt.Sprintf("L%d", rng.Intn(8))
		f.hashTo[i+1] = f.hashTo[i] + rowHash(itoa(int64(i)), itoa(int64(f.g[i])), ftoa(f.v(i)), f.label[i])
	}
	return f
}

func (f *factsData) load(db *engine.DB) error {
	t, err := db.CreateTable("facts", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int}, {Name: "k", Kind: engine.Int},
		{Name: "v", Kind: engine.Float}, {Name: "label", Kind: engine.String},
	})
	if err != nil {
		return err
	}
	for i := 0; i < f.n; i++ {
		if err := t.Insert(int64(i), int64(f.g[i]), int64(f.k[i]), f.v(i), f.label[i]); err != nil {
			return err
		}
	}
	d, err := db.CreateTable("dim", engine.Schema{
		{Name: "k", Kind: engine.Int}, {Name: "region", Kind: engine.String}, {Name: "w", Kind: engine.Float},
	})
	if err != nil {
		return err
	}
	for k := 0; k < dimKeys; k++ {
		if err := d.Insert(int64(k), fmt.Sprintf("r%d", k%dimRegions), float64(k)/10); err != nil {
			return err
		}
	}
	return nil
}

// groupBy answers "SELECT g, count(*), sum(v), avg(v) ... WHERE v > thr
// GROUP BY g", thr in whole units.
func (f *factsData) groupBy(thr int) (want map[string][]float64, n, sum float64) {
	var c [factGroups]int
	var s [factGroups]float64
	for i := 0; i < f.n; i++ {
		if f.V[i] > thr*100 {
			c[f.g[i]]++
			s[f.g[i]] += f.v(i)
		}
	}
	want = map[string][]float64{}
	for g := range c {
		if c[g] > 0 {
			want[itoa(int64(g))] = []float64{float64(c[g]), s[g], s[g] / float64(c[g])}
			n += float64(c[g])
			sum += s[g]
		}
	}
	return want, n, sum
}

// window answers the first 100 rows by id of row_number() and the
// running sum(v), partitioned by g and ordered by (v, id), over the rows
// with k < lim.
func (f *factsData) window(lim int) map[string][]float64 {
	parts := map[int][]int{}
	var ids []int
	for i := 0; i < f.n; i++ {
		if f.k[i] < lim {
			parts[f.g[i]] = append(parts[f.g[i]], i)
			ids = append(ids, i)
		}
	}
	rn, run := map[int]float64{}, map[int]float64{}
	for _, rows := range parts {
		sort.Slice(rows, func(a, b int) bool {
			if f.V[rows[a]] != f.V[rows[b]] {
				return f.V[rows[a]] < f.V[rows[b]]
			}
			return rows[a] < rows[b]
		})
		acc := 0.0
		for j, i := range rows {
			acc += f.v(i)
			rn[i], run[i] = float64(j+1), acc
		}
	}
	want := map[string][]float64{}
	for _, i := range ids[:min(100, len(ids))] {
		want[itoa(int64(i))] = []float64{rn[i], run[i]}
	}
	return want
}

// memo caches an expectation per argument; kinds draw from a few
// literals, so each answer is computed once.
func memo(fn func(arg int64) check) func(arg int64) check {
	cache := map[int64]check{}
	return func(arg int64) check {
		c, ok := cache[arg]
		if !ok {
			c = fn(arg)
			cache[arg] = c
		}
		return c
	}
}

// ctas renders CREATE TABLE AS into a per-connection table, an untimed
// read of what it stored, and the DROP. Create and drop are timed and add
// up to one write sample: the executor runs with storage as its sink
// instead of the wire.
func ctas(table, sel string, rows int, verify string, stored check) []stmt {
	return []stmt{
		{class: classWrite, text: "CREATE TABLE " + table + " AS " + sel, want: tagCheck(fmt.Sprintf("SELECT %d", rows))},
		{class: classWrite, text: verify, want: stored, untimed: true},
		{class: classWrite, text: "DROP TABLE " + table, want: tagCheck("DROP TABLE")},
	}
}

// analyticScan is the analyst mix: one connection, so what shows is
// parallelism inside a statement. facts is larger than L2; scan, batch
// kernels, aggregate merge, join build, sort and window do the work, and
// parse, plan and wire almost none.
func analyticScan(seed int64, scale int) *workload {
	f := newFacts(seed, scale)
	w := &workload{name: "analytic_scan", conns: 1, load: f.load}
	// Each kind walks eight literals that change the text, and so the
	// plan-cache entry, but hardly the work: a kind's statements then cost
	// about the same, the latency distribution is a few tight clusters,
	// and the 50th and 95th percentiles each sit inside one (group-by and
	// window; the sort) instead of on a slope between two.
	vAbove := func(arg int64) int { return 100 + 10*int(arg) }
	gBelowJoin := func(arg int64) int { return 48 + 2*int(arg) }
	gBelowSort := func(arg int64) int { return 24 + int(arg) }
	kBelow := func(arg int64) int { return 20 + int(arg) }

	groupWant := memo(func(arg int64) check { want, _, _ := f.groupBy(vAbove(arg)); return rowsCheck(1, want) })
	joinWant := memo(func(arg int64) check {
		var c [dimRegions]int
		var s [dimRegions]float64
		for i := 0; i < f.n; i++ {
			if f.k[i] < dimKeys && f.V[i] > vAbove(arg)*100 {
				c[f.k[i]%dimRegions]++
				s[f.k[i]%dimRegions] += f.v(i)
			}
		}
		want := map[string][]float64{}
		for r := range c {
			want[fmt.Sprintf("r%d", r)] = []float64{s[r], float64(c[r])}
		}
		return rowsCheck(1, want)
	})
	leftWant := memo(func(arg int64) check {
		var matched, all int
		var s float64
		for i := 0; i < f.n; i++ {
			if f.g[i] < gBelowJoin(arg) {
				all++
				s += f.v(i)
				if f.k[i] < dimKeys {
					matched++
				}
			}
		}
		return rowsCheck(0, map[string][]float64{"": {float64(matched), s, float64(all)}})
	})
	topWant := memo(func(arg int64) check {
		var rows []int
		for i := 0; i < f.n; i++ {
			if f.g[i] < gBelowSort(arg) {
				rows = append(rows, i)
			}
		}
		sort.Slice(rows, func(a, b int) bool {
			if f.V[rows[a]] != f.V[rows[b]] {
				return f.V[rows[a]] > f.V[rows[b]]
			}
			return rows[a] < rows[b]
		})
		want := map[string][]float64{}
		for _, i := range rows[:min(100, len(rows))] {
			want[itoa(int64(i))] = []float64{f.v(i)}
		}
		return rowsCheck(1, want)
	})
	windowWant := memo(func(arg int64) check { return rowsCheck(1, f.window(kBelow(arg))) })

	w.kinds = []kind{
		{
			name: "group_by", head: true, perRound: per(32, scale), nArgs: 8,
			stmts: func(arg int64, _ int) []stmt {
				return one(stmt{class: classRead, want: groupWant(arg),
					text: fmt.Sprintf("SELECT g, count(*), sum(v), avg(v) FROM facts WHERE v > %d GROUP BY g", vAbove(arg))})
			},
			direct: func(db *engine.DB, arg int64) error {
				return directGroupAgg(db, "facts", 1, 3, float64(vAbove(arg)))
			},
		},
		{
			name: "join_agg", head: true, perRound: per(16, scale), nArgs: 8,
			stmts: func(arg int64, _ int) []stmt {
				return one(stmt{class: classRead, want: joinWant(arg),
					text: fmt.Sprintf("SELECT dim.region, sum(facts.v), count(*) FROM facts JOIN dim ON facts.k = dim.k WHERE facts.v > %d GROUP BY dim.region", vAbove(arg))})
			},
		},
		{
			name: "left_join_agg", head: true, perRound: per(8, scale), nArgs: 8,
			stmts: func(arg int64, _ int) []stmt {
				return one(stmt{class: classRead, want: leftWant(arg),
					text: fmt.Sprintf("SELECT count(dim.region), sum(facts.v), count(*) FROM facts LEFT JOIN dim ON facts.k = dim.k WHERE facts.g < %d", gBelowJoin(arg))})
			},
		},
		{
			name: "order_by_limit", head: true, perRound: per(8, scale), nArgs: 8,
			stmts: func(arg int64, _ int) []stmt {
				return one(stmt{class: classRead, want: topWant(arg),
					text: fmt.Sprintf("SELECT id, v FROM facts WHERE g < %d ORDER BY v DESC, id LIMIT 100", gBelowSort(arg))})
			},
		},
		{
			name: "window", head: true, perRound: per(12, scale), nArgs: 8,
			stmts: func(arg int64, _ int) []stmt {
				return one(stmt{class: classRead, want: windowWant(arg),
					text: fmt.Sprintf("SELECT id, row_number() OVER (PARTITION BY g ORDER BY v, id), sum(v) OVER (PARTITION BY g ORDER BY v, id) FROM facts WHERE k < %d ORDER BY id LIMIT 100", kBelow(arg))})
			},
		},
		{
			name: "ctas_group_by", perRound: per(4, scale), nArgs: 8,
			stmts: func(arg int64, conn int) []stmt {
				want, n, sum := f.groupBy(vAbove(arg))
				table := fmt.Sprintf("scan_tmp_%d", conn)
				return ctas(table,
					fmt.Sprintf("SELECT g, count(*) AS n, sum(v) AS s FROM facts WHERE v > %d GROUP BY g", vAbove(arg)), len(want),
					"SELECT count(*), sum(n), sum(s) FROM "+table,
					rowsCheck(0, map[string][]float64{"": {float64(len(want)), n, sum}}))
			},
		},
	}
	return w
}

// bulkResults ships 20,000-row results over two connections. The select
// is prepared, so parse and plan are skipped, and its kernel is a range
// filter: boxing the result into [][]any, encoding DataRows and writing
// the socket do most of the work. The CREATE TABLE AS share sends the
// same selection to storage instead, so a gain on the result path that
// costs the storage sink shows.
func bulkResults(seed int64, scale int) *workload {
	f := newFacts(seed, scale)
	w := &workload{name: "bulk_results", conns: 2, load: f.load}
	span := f.n / 10
	lo := func(arg int64) int { return int(arg) * (f.n - span) / 1024 }
	w.kinds = []kind{
		{
			name: "range_select", head: true, perRound: per(56, scale), nArgs: 1024,
			prepare: fmt.Sprintf("SELECT id, g, v, label FROM facts WHERE id >= $1 AND id < $1 + %d", span),
			oids:    []int32{pgwire.OidInt8},
			stmts: func(arg int64, _ int) []stmt {
				a := lo(arg)
				return one(stmt{class: classBulk, prep: "range_select",
					want:   sumCheck(span, f.hashTo[a+span]-f.hashTo[a]),
					params: []pgwire.WireParam{pgwire.Int8Param(int64(a))}, args: []any{int64(a)},
					text: fmt.Sprintf("SELECT id, g, v, label FROM facts WHERE id >= %d AND id < %d + %d", a, a, span)})
			},
			direct: func(db *engine.DB, arg int64) error { return directRange(db, "facts", int64(lo(arg)), int64(span)) },
		},
		{
			name: "ctas_range", perRound: per(10, scale), nArgs: 1024,
			stmts: func(arg int64, conn int) []stmt {
				a := lo(arg)
				var ids, vs float64
				for i := a; i < a+span; i++ {
					ids += float64(i)
					vs += f.v(i)
				}
				table := fmt.Sprintf("bulk_tmp_%d", conn)
				return ctas(table,
					fmt.Sprintf("SELECT id, g, v, label FROM facts WHERE id >= %d AND id < %d + %d", a, a, span), span,
					"SELECT count(*), sum(id), sum(v) FROM "+table,
					rowsCheck(0, map[string][]float64{"": {float64(span), ids, vs}}))
			},
		},
	}
	return w
}
