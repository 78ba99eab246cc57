package engine

import (
	"context"
	"testing"
)

// RunGroupByKey is runGroupBy over GroupKey: the row-at-a-time keyed
// hash aggregate, kept for the tests as the reference RunGroupByBatched
// (the driver SQL runs) is checked against.
func (db *DB) RunGroupByKey(t *Table, key func(Row) GroupKey, agg Aggregate) (map[GroupKey]any, error) {
	return runGroupBy(context.Background(), db, t, key, agg)
}

func TestRunGroupByKey(t *testing.T) {
	db := Open(4)
	tbl, err := db.CreateTable("t", Schema{
		{Name: "g", Kind: Int}, {Name: "v", Kind: Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(int64(i%8), float64(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	groups, err := db.RunGroupByKey(tbl,
		func(r Row) GroupKey { return GroupKey{Int: r.Int(0)} }, sumAgg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 8 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Cross-check against the string-keyed path on identical data.
	strGroups, err := db.RunGroupBy(tbl,
		func(r Row) string { return string(rune('a' + r.Int(0))) }, sumAgg(1))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range groups {
		sv := strGroups[string(rune('a'+k.Int))]
		if v.(float64) != sv.(float64) {
			t.Fatalf("key %v: keyed sum %v != string-keyed sum %v", k, v, sv)
		}
	}
	// Composite keys via the Str field co-group correctly.
	groups, err = db.RunGroupByKey(tbl,
		func(r Row) GroupKey { return GroupKey{Int: r.Int(0) % 2, Str: "s"} }, sumAgg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("composite groups = %d", len(groups))
	}
}

func TestRunGroupByKeyAllocs(t *testing.T) {
	// The point of the keyed path: grouping by an Int column must not
	// allocate per row.
	db := Open(1)
	tbl, err := db.CreateTable("t", Schema{
		{Name: "g", Kind: Int}, {Name: "v", Kind: Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 4000
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i%4), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	// Pointer state, so the aggregate itself does not box per row.
	agg := FuncAggregate{
		InitFn: func() any { return new(float64) },
		TransitionFn: func(s any, r Row) any {
			p := s.(*float64)
			*p += r.Float(1)
			return p
		},
		MergeFn: func(a, b any) any {
			p := a.(*float64)
			*p += *b.(*float64)
			return p
		},
		FinalFn: func(s any) (any, error) { return *s.(*float64), nil },
	}
	key := func(r Row) GroupKey { return GroupKey{Int: r.Int(0)} }
	avg := testing.AllocsPerRun(10, func() {
		if _, err := db.RunGroupByKey(tbl, key, agg); err != nil {
			t.Fatal(err)
		}
	})
	// Fixed per-query overhead only (maps, states, goroutine bookkeeping)
	// — far below one allocation per row.
	if avg > rows/10 {
		t.Fatalf("allocs per run = %v, want far fewer than %d", avg, rows)
	}
}
