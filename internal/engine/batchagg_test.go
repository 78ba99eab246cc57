package engine

// Contract of the batch transition (BatchAggregate): the whole-table
// drivers hand a batch aggregate each morsel as BatchSize windows, the
// row-taking drivers hand it one-row batches, and either way it returns
// what its row-at-a-time twin returns.

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

// foldTrace is an order-sensitive fold: it ends up equal only if the same
// values were folded in the same order and merged along the same tree.
type foldTrace struct {
	h uint64
	n int64
}

func (s *foldTrace) add(v float64) {
	s.h = s.h*1000003 + math.Float64bits(v)
	s.n++
}

// traceAgg folds column 1 into a foldTrace, through a batch transition
// only or a row transition only.
func traceAgg(batch bool) FuncAggregate {
	agg := FuncAggregate{
		InitFn: func() any { return &foldTrace{} },
		MergeFn: func(a, b any) any {
			sa, sb := a.(*foldTrace), b.(*foldTrace)
			sa.h = sa.h*31 + sb.h
			sa.n += sb.n
			return sa
		},
		FinalFn: func(s any) (any, error) { return *s.(*foldTrace), nil },
	}
	if batch {
		agg.TransitionBatchFn = func(s any, b ColBatch) any {
			st := s.(*foldTrace)
			for _, v := range b.Floats(1) {
				st.add(v)
			}
			return st
		}
	} else {
		agg.TransitionFn = func(s any, r Row) any {
			st := s.(*foldTrace)
			st.add(r.Float(1))
			return st
		}
	}
	return agg
}

func TestBatchOnlyAggregateMatchesRowTwin(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(3)
	rows := 3*MorselRows + 2*BatchSize + 13 // split segments, ragged last batch
	tbl := loadParallelTable(t, db, rows)
	key := func(r Row) GroupKey { return GroupKey{Int: r.Int(0)} }

	drivers := map[string]func(agg Aggregate) (any, error){
		"Run": func(agg Aggregate) (any, error) { return db.Run(tbl, agg) },
		"RunGroupByKey": func(agg Aggregate) (any, error) {
			return db.RunGroupByKey(tbl, key, agg)
		},
		"RunInstrumented": func(agg Aggregate) (any, error) {
			v, _, err := db.RunInstrumented(tbl, agg)
			return v, err
		},
		"RunSimulated": func(agg Aggregate) (any, error) {
			v, _, err := db.RunSimulated(tbl, agg)
			return v, err
		},
	}
	for name, run := range drivers {
		got, err := run(traceAgg(true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := run(traceAgg(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batch-only %v, row-only twin %v", name, got, want)
		}
	}
	if v, _ := db.Run(tbl, traceAgg(true)); v.(foldTrace).n != int64(rows) {
		t.Fatalf("Run folded %d rows, table has %d", v.(foldTrace).n, rows)
	}
}

// Batches reach the transition in row order within a morsel, and the
// windows are a function of the table's shape only: the same list at
// every worker count.
func TestBatchWindowsAreShapeOnly(t *testing.T) {
	db := Open(2)
	tbl := loadParallelTable(t, db, 2*MorselRows+3*BatchSize+13)
	type window struct{ first, off, n int }
	windows := func() []window {
		v, err := db.Run(tbl, FuncAggregate{
			InitFn: func() any { return []window(nil) },
			TransitionBatchFn: func(s any, b ColBatch) any {
				ws := s.([]window)
				if len(ws) > 0 && ws[len(ws)-1].off+ws[len(ws)-1].n != b.Offset() {
					t.Errorf("batch at %d does not follow %+v", b.Offset(), ws[len(ws)-1])
				}
				if b.Offset()%BatchSize != 0 || b.Len() == 0 || b.Len() > BatchSize {
					t.Errorf("window [%d,+%d) is not a BatchSize window", b.Offset(), b.Len())
				}
				return append(ws, window{int(b.Ints(0)[0]), b.Offset(), b.Len()})
			},
			MergeFn: func(a, b any) any { return append(a.([]window), b.([]window)...) },
			FinalFn: func(s any) (any, error) { return s, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.([]window)
	}
	withGOMAXPROCS(t, 1)
	seq := windows()
	var covered int64
	for _, w := range seq {
		covered += int64(w.n)
	}
	if covered != tbl.Count() {
		t.Fatalf("windows cover %d rows, table has %d", covered, tbl.Count())
	}
	for _, procs := range []int{2, 4} {
		withGOMAXPROCS(t, procs)
		if got := windows(); !reflect.DeepEqual(got, seq) {
			t.Fatalf("GOMAXPROCS=%d saw different windows than the sequential scan", procs)
		}
	}
}

// An aggregate that reaches the engine as a bare Aggregate — no
// TransitionBatch method in its method set — folds row by row, exactly as
// it did before the batch lane existed.
func TestBareAggregateTakesRowPath(t *testing.T) {
	db := Open(2)
	rows := 2 * ParallelRowThreshold
	tbl := loadParallelTable(t, db, rows)
	var rowCalls, batchCalls atomic.Int64
	both := FuncAggregate{
		InitFn: func() any { return int64(0) },
		TransitionFn: func(s any, _ Row) any {
			rowCalls.Add(1)
			return s.(int64) + 1
		},
		TransitionBatchFn: func(s any, b ColBatch) any {
			batchCalls.Add(1)
			return s.(int64) + int64(b.Len())
		},
		MergeFn: func(a, b any) any { return a.(int64) + b.(int64) },
		FinalFn: func(s any) (any, error) { return s, nil },
	}
	if v, err := db.Run(tbl, struct{ Aggregate }{both}); err != nil || v.(int64) != int64(rows) {
		t.Fatalf("bare: %v, %v", v, err)
	}
	if rowCalls.Load() != int64(rows) || batchCalls.Load() != 0 {
		t.Fatalf("bare aggregate: %d row calls, %d batch calls", rowCalls.Load(), batchCalls.Load())
	}
	rowCalls.Store(0)
	if v, err := db.Run(tbl, both); err != nil || v.(int64) != int64(rows) {
		t.Fatalf("batch: %v, %v", v, err)
	}
	if rowCalls.Load() != 0 || batchCalls.Load() == 0 {
		t.Fatalf("batch aggregate: %d row calls, %d batch calls", rowCalls.Load(), batchCalls.Load())
	}
}
