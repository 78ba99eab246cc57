package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// withGOMAXPROCS runs the rest of the test with the given GOMAXPROCS,
// restoring the previous value afterwards. Raising it above NumCPU is
// legal and forces the engine's worker-pool mode even on a single-core
// machine, so the morsel scheduler is exercised (and race-checked)
// everywhere.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func loadParallelTable(t *testing.T, db *DB, rows int) *Table {
	t.Helper()
	tbl, err := db.CreateTable("p", Schema{
		{Name: "g", Kind: Int}, {Name: "v", Kind: Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i%13), float64(i%997)/7); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func sumFloatAgg() Aggregate {
	return FuncAggregate{
		InitFn: func() any { return 0.0 },
		TransitionFn: func(s any, row Row) any {
			return s.(float64) + row.Float(1)
		},
		MergeFn: func(a, b any) any { return a.(float64) + b.(float64) },
		FinalFn: func(s any) (any, error) { return s, nil },
	}
}

// TestPooledSegmentsMatchSequential proves the worker-pool mode is
// bit-identical to sequential execution: per-segment states fold in row
// order on one worker and merge left-to-right in segment order, so even
// non-associative float sums agree exactly.
func TestPooledSegmentsMatchSequential(t *testing.T) {
	withGOMAXPROCS(t, 1)
	db := Open(7)
	tbl := loadParallelTable(t, db, 3*ParallelRowThreshold)

	seq, err := db.Run(tbl, sumFloatAgg())
	if err != nil {
		t.Fatal(err)
	}
	seqGroups, err := db.RunGroupByKey(tbl,
		func(r Row) GroupKey { return GroupKey{Int: r.Int(0)} }, sumFloatAgg())
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	if w := db.segmentWorkers(tbl); w != 4 {
		t.Fatalf("segmentWorkers = %d, want 4", w)
	}
	for trial := 0; trial < 5; trial++ {
		par, err := db.Run(tbl, sumFloatAgg())
		if err != nil {
			t.Fatal(err)
		}
		if par != seq {
			t.Fatalf("trial %d: pooled sum %v != sequential %v", trial, par, seq)
		}
		parGroups, err := db.RunGroupByKey(tbl,
			func(r Row) GroupKey { return GroupKey{Int: r.Int(0)} }, sumFloatAgg())
		if err != nil {
			t.Fatal(err)
		}
		if len(parGroups) != len(seqGroups) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(parGroups), len(seqGroups))
		}
		for k, v := range seqGroups {
			if parGroups[k] != v {
				t.Fatalf("trial %d: group %v = %v, want %v", trial, k, parGroups[k], v)
			}
		}
	}
}

// TestPooledBatchedMatchSequential covers the batched drivers under the
// worker pool, including batch-boundary handling (>BatchSize rows per
// segment).
func TestPooledBatchedMatchSequential(t *testing.T) {
	db := Open(5)
	tbl := loadParallelTable(t, db, 6*BatchSize+17)

	run := func() (any, map[GroupKey]any) {
		t.Helper()
		v, err := db.RunBatched(tbl,
			func(int) any { f := 0.0; return &f },
			func(state any, b ColBatch) error {
				acc := state.(*float64)
				for _, v := range b.Floats(1) {
					*acc += v
				}
				return nil
			},
			func(a, b any) any { *a.(*float64) += *b.(*float64); return a })
		if err != nil {
			t.Fatal(err)
		}
		groups, err := db.RunGroupByBatched(tbl,
			func(int) any { return map[GroupKey]any{} },
			func(state any, b ColBatch) error {
				m := state.(map[GroupKey]any)
				gs, vs := b.Ints(0), b.Floats(1)
				for i := range gs {
					k := GroupKey{Int: gs[i]}
					if prev, ok := m[k]; ok {
						m[k] = prev.(float64) + vs[i]
					} else {
						m[k] = vs[i]
					}
				}
				return nil
			},
			func(state any) map[GroupKey]any { return state.(map[GroupKey]any) },
			func(a, b any) any { return a.(float64) + b.(float64) })
		if err != nil {
			t.Fatal(err)
		}
		return *v.(*float64), groups
	}

	withGOMAXPROCS(t, 1)
	seqSum, seqGroups := run()
	runtime.GOMAXPROCS(3)
	for trial := 0; trial < 5; trial++ {
		parSum, parGroups := run()
		if parSum != seqSum {
			t.Fatalf("trial %d: pooled batched sum %v != sequential %v", trial, parSum, seqSum)
		}
		for k, v := range seqGroups {
			if parGroups[k] != v {
				t.Fatalf("trial %d: group %v = %v, want %v", trial, k, parGroups[k], v)
			}
		}
	}
}

// TestSegmentWorkersFallback pins the sequential-fallback rules: small
// tables and single-CPU settings run inline.
func TestSegmentWorkersFallback(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(4)
	small := loadParallelTable(t, db, ParallelRowThreshold-1)
	if w := db.segmentWorkers(small); w != 1 {
		t.Fatalf("below-threshold table: workers = %d, want 1", w)
	}
	if err := small.Insert(int64(0), 1.0); err != nil {
		t.Fatal(err)
	}
	if w := db.segmentWorkers(small); w != 4 {
		t.Fatalf("at-threshold table: workers = %d, want 4", w)
	}
	runtime.GOMAXPROCS(1)
	if w := db.segmentWorkers(small); w != 1 {
		t.Fatalf("GOMAXPROCS=1: workers = %d, want 1", w)
	}
	runtime.GOMAXPROCS(8)
	if w := db.segmentWorkers(small); w != 4 {
		t.Fatalf("workers must cap at the segment count: got %d, want 4", w)
	}
}

// TestPooledSegmentsErrorOrder proves the pool surfaces the first error
// in segment order, like the old fan-out did.
func TestPooledSegmentsErrorOrder(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(6)
	tbl := loadParallelTable(t, db, 2*ParallelRowThreshold)
	boom2 := errors.New("boom segment 2")
	boom4 := errors.New("boom segment 4")
	err := db.parallelSegments(tbl, func(i int, seg *Segment) error {
		switch i {
		case 2:
			return boom2
		case 4:
			return boom4
		}
		return nil
	})
	if !errors.Is(err, boom2) {
		t.Fatalf("err = %v, want the lowest-indexed segment's error", err)
	}
}

// TestTableVersion pins which operations count as data mutations.
func TestTableVersion(t *testing.T) {
	db := Open(2)
	tbl, err := db.CreateTable("v", Schema{{Name: "x", Kind: Float}, {Name: "n", Kind: Int}})
	if err != nil {
		t.Fatal(err)
	}
	v0 := tbl.Version()
	if err := tbl.Insert(1.5, int64(1)); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v0 {
		t.Fatal("Insert did not bump the version")
	}
	v2 := tbl.Version()
	countWhere(t, db, tbl, func(Row) bool { return true })
	if tbl.Version() != v2 {
		t.Fatal("a read-only query bumped the version")
	}
	if err := db.UpdateInt(tbl, "n", func(Row) int64 { return 9 }); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v2 {
		t.Fatal("UpdateInt did not bump the version")
	}
	v3 := tbl.Version()
	tbl.Truncate()
	if tbl.Version() == v3 {
		t.Fatal("Truncate did not bump the version")
	}
}

// TestHashJoinVectorizedProbe covers the batch-at-a-time probe across
// batch boundaries: duplicate keys (fan-out), misses, and outer
// padding, on segments larger than one ColBatch.
func TestHashJoinVectorizedProbe(t *testing.T) {
	withGOMAXPROCS(t, 2)
	db := Open(3)
	left, err := db.CreateTable("l", Schema{
		{Name: "k", Kind: Int}, {Name: "x", Kind: Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := 3*BatchSize + 11
	for i := 0; i < rows; i++ {
		if err := left.Insert(int64(i%50), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	right, err := db.CreateTable("r", Schema{
		{Name: "k", Kind: Int}, {Name: "tag", Kind: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0..39 match (keys 40..49 miss); key 7 is duplicated → fan-out 2.
	for k := 0; k < 40; k++ {
		if err := right.Insert(int64(k), fmt.Sprintf("t%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := right.Insert(int64(7), "t7b"); err != nil {
		t.Fatal(err)
	}

	inner, err := db.HashJoinTemp("inner_out", left, "k", right, "k", false)
	if err != nil {
		t.Fatal(err)
	}
	perKey := rows / 50 // left rows per key value (rows%50 == 11 extra for keys 0..10)
	wantInner := 0
	for k := 0; k < 40; k++ {
		n := perKey
		if k < rows%50 {
			n++
		}
		fan := 1
		if k == 7 {
			fan = 2
		}
		wantInner += n * fan
	}
	if got := int(inner.Count()); got != wantInner {
		t.Fatalf("inner join rows = %d, want %d", got, wantInner)
	}

	outer, err := db.HashJoinTemp("outer_out", left, "k", right, "k", true)
	if err != nil {
		t.Fatal(err)
	}
	wantUnmatched := 0
	for k := 40; k < 50; k++ {
		n := perKey
		if k < rows%50 {
			n++
		}
		wantUnmatched += n
	}
	if got := int(outer.Count()); got != wantInner+wantUnmatched {
		t.Fatalf("outer join rows = %d, want %d", got, wantInner+wantUnmatched)
	}
	// Padded rows carry zero values and MatchedCol=false; matched rows
	// carry the right tag and MatchedCol=true.
	schema := outer.Schema()
	ki := schema.MustIndex("k")
	tagi := schema.MustIndex("tag")
	mi := schema.MustIndex(MatchedCol)
	unmatched := 0
	for _, row := range db.Rows(outer) {
		if row[mi].(bool) {
			if row[tagi].(string) == "" {
				t.Fatal("matched row lost its right-side tag")
			}
			continue
		}
		unmatched++
		if row[ki].(int64) < 40 {
			t.Fatalf("key %d should have matched", row[ki])
		}
		if row[tagi].(string) != "" {
			t.Fatalf("padded row has non-zero right column %q", row[tagi])
		}
	}
	if unmatched != wantUnmatched {
		t.Fatalf("unmatched rows = %d, want %d", unmatched, wantUnmatched)
	}
}

// TestMetricsCountersUnderPool proves the observability counters are
// exact — not merely race-free — when queries run concurrently over the
// morsel pool: every dispatch decision, query and scanned row is
// counted exactly once. Run under -race this also exercises the
// counters' atomics against the pool's worker goroutines.
func TestMetricsCountersUnderPool(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(6)
	tbl := loadParallelTable(t, db, 2*ParallelRowThreshold)

	reg := db.Metrics()
	base := func(name string) int64 { return reg.Counter(name).Value() }
	baseQueries := base("engine_queries")
	baseRows := base("engine_rows_scanned")
	basePar := base("engine_scans_parallel")
	baseSeq := base("engine_scans_sequential")

	const goroutines, perGoroutine = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if _, err := db.Run(tbl, sumFloatAgg()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	const queries = goroutines * perGoroutine
	if got := base("engine_queries") - baseQueries; got != queries {
		t.Errorf("engine_queries delta = %d, want %d", got, queries)
	}
	if got, want := base("engine_rows_scanned")-baseRows, int64(queries)*tbl.Count(); got != want {
		t.Errorf("engine_rows_scanned delta = %d, want %d", got, want)
	}
	// Above the row threshold with GOMAXPROCS=4, every scan must take
	// the pooled path.
	if got := base("engine_scans_parallel") - basePar; got != queries {
		t.Errorf("engine_scans_parallel delta = %d, want %d", got, queries)
	}
	if got := base("engine_scans_sequential") - baseSeq; got != 0 {
		t.Errorf("engine_scans_sequential delta = %d, want 0", got)
	}
}

// TestInsertTypeErrorLeavesLanesAligned pins that a mid-row type error
// appends nothing: the failed row must not shift later rows' column
// lanes against each other, and must not bump the version.
func TestInsertTypeErrorLeavesLanesAligned(t *testing.T) {
	db := Open(2)
	tbl, err := db.CreateTable("a", Schema{{Name: "i", Kind: Int}, {Name: "f", Kind: Float}})
	if err != nil {
		t.Fatal(err)
	}
	v0 := tbl.Version()
	if err := tbl.Insert(int64(1), "not a float"); err == nil {
		t.Fatal("Insert with a mistyped value must fail")
	}
	if tbl.Version() != v0 {
		t.Fatal("failed Insert must not bump the version")
	}
	if err := tbl.Insert(int64(2), 3.5); err != nil {
		t.Fatal(err)
	}
	rows := db.Rows(tbl)
	if len(rows) != 1 || rows[0][0] != int64(2) || rows[0][1] != 3.5 {
		t.Fatalf("rows = %v, want [[2 3.5]] (lanes misaligned by failed insert?)", rows)
	}
	if c := tbl.Count(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
}
