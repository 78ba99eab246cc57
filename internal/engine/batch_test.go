package engine

import (
	"fmt"
	"testing"
)

// loadBatchTable builds a table with every lane kind and enough rows to
// cross several batch boundaries on every segment.
func loadBatchTable(t *testing.T, segments, rows int) (*DB, *Table) {
	t.Helper()
	db := Open(segments)
	tbl, err := db.CreateTable("t", Schema{
		{Name: "f", Kind: Float},
		{Name: "i", Kind: Int},
		{Name: "s", Kind: String},
		{Name: "b", Kind: Bool},
		{Name: "v", Kind: Vector},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		err := tbl.Insert(float64(r)/2, int64(r), fmt.Sprintf("s%d", r%7), r%3 == 0, []float64{float64(r)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

func TestColBatchLanesMatchRows(t *testing.T) {
	_, tbl := loadBatchTable(t, 3, 2*BatchSize+37)
	for _, seg := range tbl.Segments() {
		covered := 0
		err := forEachBatch(seg, func(b ColBatch) error {
			if b.Len() > BatchSize {
				t.Fatalf("batch of %d rows exceeds BatchSize", b.Len())
			}
			if b.Offset() != covered {
				t.Fatalf("batch offset %d, want %d", b.Offset(), covered)
			}
			fs, is, ss, bs, vs := b.Floats(0), b.Ints(1), b.Strings(2), b.Bools(3), b.Vectors(4)
			for j := 0; j < b.Len(); j++ {
				row := b.Row(j)
				if fs[j] != row.Float(0) || is[j] != row.Int(1) || ss[j] != row.Str(2) ||
					bs[j] != row.Bool(3) || &vs[j][0] != &row.Vector(4)[0] {
					t.Fatalf("lane value mismatch at batch row %d", j)
				}
			}
			covered += b.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if covered != seg.Len() {
			t.Fatalf("batches covered %d of %d rows", covered, seg.Len())
		}
	}
}

// batchSumAgg is the per-row reference aggregate for the parity tests.
var batchSumAgg = FuncAggregate{
	InitFn: func() any { return 0.0 },
	TransitionFn: func(s any, row Row) any {
		return s.(float64) + row.Float(0)
	},
	MergeFn: func(a, b any) any { return a.(float64) + b.(float64) },
	FinalFn: func(s any) (any, error) { return s, nil },
}

func TestRunBatchedMatchesRun(t *testing.T) {
	for _, rows := range []int{0, 1, BatchSize, BatchSize + 1, 3*BatchSize + 511} {
		db, tbl := loadBatchTable(t, 4, rows)
		want, err := db.Run(tbl, batchSumAgg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.RunBatched(tbl,
			func(int) any { return new(float64) },
			func(state any, b ColBatch) error {
				acc := state.(*float64)
				for _, v := range b.Floats(0) {
					*acc += v
				}
				return nil
			},
			func(a, b any) any { *a.(*float64) += *b.(*float64); return a },
		)
		if err != nil {
			t.Fatal(err)
		}
		if *got.(*float64) != want.(float64) {
			t.Fatalf("rows=%d: RunBatched=%v Run=%v", rows, *got.(*float64), want)
		}
	}
}

func TestRunGroupByBatchedMatchesRunGroupByKey(t *testing.T) {
	db, tbl := loadBatchTable(t, 4, 2*BatchSize+123)
	want, err := db.RunGroupByKey(tbl,
		func(row Row) GroupKey { return GroupKey{Int: row.Int(1) % 5} },
		batchSumAgg)
	if err != nil {
		t.Fatal(err)
	}
	type segState struct{ m map[GroupKey]any }
	got, err := db.RunGroupByBatched(tbl,
		func(int) any { return &segState{m: make(map[GroupKey]any)} },
		func(state any, b ColBatch) error {
			st := state.(*segState)
			fs, is := b.Floats(0), b.Ints(1)
			for j := range fs {
				k := GroupKey{Int: is[j] % 5}
				acc, _ := st.m[k].(float64)
				st.m[k] = acc + fs[j]
			}
			return nil
		},
		func(state any) map[GroupKey]any { return state.(*segState).m },
		func(a, b any) any { return a.(float64) + b.(float64) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v.(float64) {
			t.Fatalf("group %v: got %v want %v", k, got[k], v)
		}
	}
}

func TestForEachBatchCoversEveryRowOnce(t *testing.T) {
	db, tbl := loadBatchTable(t, 3, BatchSize+257)
	counts := make([]int64, 3)
	err := db.ForEachBatch(tbl, func(segIdx int, b ColBatch) error {
		counts[segIdx] += int64(b.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, seg := range tbl.Segments() {
		if counts[i] != int64(seg.Len()) {
			t.Fatalf("segment %d: visited %d rows, has %d", i, counts[i], seg.Len())
		}
		total += counts[i]
	}
	if total != tbl.Count() {
		t.Fatalf("visited %d rows, table has %d", total, tbl.Count())
	}
}

func TestRunBatchedPropagatesErrors(t *testing.T) {
	db, tbl := loadBatchTable(t, 2, 100)
	wantErr := fmt.Errorf("kernel boom")
	_, err := db.RunBatched(tbl,
		func(int) any { return nil },
		func(any, ColBatch) error { return wantErr },
		func(a, _ any) any { return a },
	)
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}
