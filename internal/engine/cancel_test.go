package engine

// Cancellation contract of the scan drivers: ctx is checked at morsel
// (or segment) boundaries, so a cancelled query stops scanning without
// draining the table and reports ctx.Err(). rows_scanned advances only
// for completed morsels, which is how callers (and the pgwire e2e test)
// verify a kill actually stopped the scan.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func countRowsAgg(onRow func()) Aggregate {
	return FuncAggregate{
		InitFn: func() any { return int64(0) },
		TransitionFn: func(s any, _ Row) any {
			onRow()
			return s.(int64) + 1
		},
		MergeFn: func(a, b any) any { return a.(int64) + b.(int64) },
		FinalFn: func(s any) (any, error) { return s, nil },
	}
}

func TestRunCtxCancelStopsScanEarly(t *testing.T) {
	db := Open(4)
	// 40 morsels' worth of rows so a cancel in the first morsel leaves
	// most of the table unscanned in every execution mode.
	rows := 40 * MorselRows
	tbl := loadParallelTable(t, db, rows)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	before := db.RowsScanned()
	_, err := db.RunCtx(ctx, tbl, countRowsAgg(func() {
		if seen.Add(1) == 100 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	scanned := db.RowsScanned() - before
	if scanned >= int64(rows) {
		t.Fatalf("scanned %d of %d rows despite cancellation", scanned, rows)
	}
}

// A batch aggregate is cancelled at the same morsel boundaries, and a
// cancelled scan never reaches Final.
func TestRunCtxCancelBatchAggregateSkipsFinal(t *testing.T) {
	db := Open(4)
	rows := 40 * MorselRows
	tbl := loadParallelTable(t, db, rows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var batches atomic.Int64
	finalized := false
	before := db.RowsScanned()
	_, err := db.RunCtx(ctx, tbl, FuncAggregate{
		InitFn: func() any { return int64(0) },
		TransitionBatchFn: func(s any, b ColBatch) any {
			if batches.Add(1) == 2 {
				cancel()
			}
			return s.(int64) + int64(b.Len())
		},
		MergeFn: func(a, b any) any { return a.(int64) + b.(int64) },
		FinalFn: func(s any) (any, error) { finalized = true; return s, nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finalized {
		t.Fatal("cancelled scan was finalized")
	}
	if scanned := db.RowsScanned() - before; scanned >= int64(rows) || scanned%MorselRows != 0 {
		t.Fatalf("scanned %d of %d rows; want a whole number of morsels short of the table", scanned, rows)
	}
}

func TestRunCtxPreCancelledScansNothing(t *testing.T) {
	db := Open(4)
	tbl := loadParallelTable(t, db, 2*ParallelRowThreshold)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := db.RowsScanned()
	if _, err := db.RunCtx(ctx, tbl, countRowsAgg(func() {})); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := db.RowsScanned() - before; got != 0 {
		t.Fatalf("scanned %d rows under a pre-cancelled context", got)
	}
}

func TestForEachBatchCtxCancel(t *testing.T) {
	db := Open(4)
	tbl := loadParallelTable(t, db, 40*MorselRows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var batches atomic.Int64
	err := db.ForEachBatchCtx(ctx, tbl, func(_ int, scan func(func(int, ColBatch) error) error) error {
		return scan(func(int, ColBatch) error {
			if batches.Add(1) == 1 {
				cancel()
			}
			return nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBackgroundContextKeepsFullScan(t *testing.T) {
	db := Open(4)
	rows := 2 * ParallelRowThreshold
	tbl := loadParallelTable(t, db, rows)
	v, err := db.RunCtx(context.Background(), tbl, countRowsAgg(func() {}))
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != int64(rows) {
		t.Fatalf("count = %v, want %d", v, rows)
	}
}
