package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestTableMorselsDecomposition pins the morsel invariants the drivers
// rely on: morsels appear in (segment, offset) order, cover every row of
// every segment exactly once, never exceed MorselRows, split only at
// MorselRows boundaries (which are BatchSize-aligned), keep small and
// empty segments whole, and agree with ScanMorsels. The decomposition is
// a function of the table's shape only.
func TestTableMorselsDecomposition(t *testing.T) {
	cases := []struct{ segments, rows int }{
		{3, 0},                  // empty table: one morsel per (empty) segment
		{2, 7},                  // tiny
		{2, 2 * MorselRows},     // segments land exactly at the split threshold
		{2, 2*MorselRows + 123}, // segments just above it
		{1, 3*MorselRows + 1},   // one big segment, ragged tail
	}
	for _, tc := range cases {
		db := Open(tc.segments)
		tbl, err := db.CreateTable("m", Schema{{Name: "x", Kind: Int}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.rows; i++ {
			if err := tbl.Insert(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		ms := tableMorsels(tbl)
		if got := db.ScanMorsels(tbl); got != len(ms) {
			t.Fatalf("%+v: ScanMorsels = %d, tableMorsels has %d", tc, got, len(ms))
		}
		segIdx, nextOff := 0, 0
		segs := tbl.Segments()
		for _, m := range ms {
			// Advance over segments whose rows are fully covered.
			for m.segIdx != segIdx {
				if nextOff != segs[segIdx].Len() {
					t.Fatalf("%+v: segment %d covered to %d of %d before moving on",
						tc, segIdx, nextOff, segs[segIdx].Len())
				}
				segIdx++
				nextOff = 0
			}
			if m.off != nextOff {
				t.Fatalf("%+v: segment %d morsel starts at %d, want %d", tc, segIdx, m.off, nextOff)
			}
			if m.n > MorselRows {
				t.Fatalf("%+v: morsel of %d rows exceeds MorselRows", tc, m.n)
			}
			if m.off%MorselRows != 0 {
				t.Fatalf("%+v: morsel offset %d not MorselRows-aligned", tc, m.off)
			}
			if seg := segs[segIdx]; seg.Len() <= MorselRows && m.n != seg.Len() {
				t.Fatalf("%+v: small segment %d split into a %d-row morsel", tc, segIdx, m.n)
			}
			nextOff = m.off + m.n
		}
		for ; segIdx < len(segs); segIdx++ {
			if nextOff != segs[segIdx].Len() {
				t.Fatalf("%+v: segment %d covered to %d of %d rows", tc, segIdx, nextOff, segs[segIdx].Len())
			}
			nextOff = 0
		}
	}
}

// TestForEachBatchMorselOrder proves ForEachBatch hands each morsel's
// batches to exactly one callback index, with BatchSize-aligned offsets
// — sub-segment morsels must see the same batch windows a whole-segment
// scan would — and that morsel indices cover [0, ScanMorsels) exactly.
func TestForEachBatchMorselOrder(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(2)
	tbl, err := db.CreateTable("mb", Schema{{Name: "x", Kind: Int}})
	if err != nil {
		t.Fatal(err)
	}
	rows := 2*MorselRows + 3*BatchSize + 13 // both segments split into multiple morsels
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := db.ScanMorsels(tbl)
	if n <= len(tbl.Segments()) {
		t.Fatalf("ScanMorsels = %d, want sub-segment morsels (> %d segments)", n, len(tbl.Segments()))
	}
	type span struct{ covered, batches int }
	spans := make([]span, n)
	var total int64
	err = db.ForEachBatch(tbl, func(morselIdx int, b ColBatch) error {
		if morselIdx < 0 || morselIdx >= n {
			t.Errorf("morselIdx %d out of range [0,%d)", morselIdx, n)
		}
		if b.Offset()%BatchSize != 0 {
			t.Errorf("batch offset %d not BatchSize-aligned", b.Offset())
		}
		spans[morselIdx].covered += b.Len()
		spans[morselIdx].batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spans {
		if sp.covered == 0 {
			t.Fatalf("morsel %d received no batches", i)
		}
		if sp.covered > MorselRows {
			t.Fatalf("morsel %d covered %d rows, max %d", i, sp.covered, MorselRows)
		}
		total += int64(sp.covered)
	}
	if total != tbl.Count() {
		t.Fatalf("batches covered %d rows, table has %d", total, tbl.Count())
	}
}

// TestForEachBatchCtxCountsUnderLatch pins the contract per-morsel
// buffers rely on: the morsel count handed to gather and the scan that
// follows see one decomposition. An INSERT issued between the two — one
// that pushes a segment sitting at exactly MorselRows rows into a second
// morsel — waits for the scan, so no morsel index reaches the count.
func TestForEachBatchCtxCountsUnderLatch(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(2)
	tbl, err := db.CreateTable("g", Schema{{Name: "x", Kind: Int}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*MorselRows; i++ {
		if err := tbl.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	inserted := make(chan error, 1)
	err = db.ForEachBatchCtx(context.Background(), tbl, func(morsels int, scan func(func(int, ColBatch) error) error) error {
		go func() { inserted <- tbl.Insert(int64(-1)) }()
		select {
		case err := <-inserted:
			t.Fatalf("INSERT finished between the morsel count and the scan (err %v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		return scan(func(i int, _ ColBatch) error {
			if i >= morsels {
				return fmt.Errorf("morsel index %d past the %d counted", i, morsels)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if got := db.ScanMorsels(tbl); got != 3 {
		t.Fatalf("after the INSERT: %d morsels, want 3", got)
	}
}

// TestSortStableMatchesSliceStable proves the chunked parallel sort is
// bit-identical to sort.SliceStable — including tie order — at any
// worker count, and that the dispatch counters tick accordingly.
func TestSortStableMatchesSliceStable(t *testing.T) {
	db := Open(2)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, ParallelRowThreshold - 1, 3*ParallelRowThreshold + 77} {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(17) // heavy ties: stability is observable
		}
		less := func(a, b int) bool { return keys[a] < keys[b] }
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return less(want[a], want[b]) })
		for _, procs := range []int{1, 4} {
			withGOMAXPROCS(t, procs)
			seq0 := db.sortSeq.Value()
			par0 := db.sortPar.Value()
			got := db.SortStable(n, less)
			if len(got) != n {
				t.Fatalf("n=%d procs=%d: perm has %d entries", n, procs, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d procs=%d: perm[%d] = %d, want %d", n, procs, i, got[i], want[i])
				}
			}
			wantPar := procs > 1 && n >= 2*ParallelRowThreshold
			if gotPar := db.sortPar.Value() > par0; gotPar != wantPar {
				t.Fatalf("n=%d procs=%d: parallel dispatch = %v, want %v", n, procs, gotPar, wantPar)
			}
			if gotSeq := db.sortSeq.Value() > seq0; gotSeq == wantPar {
				t.Fatalf("n=%d procs=%d: sequential dispatch = %v, want %v", n, procs, gotSeq, !wantPar)
			}
		}
	}
}

// TestSortStableConcurrentComparator hammers SortStable with a
// comparator over shared read-only data at GOMAXPROCS=4; under -race
// this proves the chunk sorts and pairwise merges never run the
// comparator on overlapping index ranges unsynchronized.
func TestSortStableConcurrentComparator(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := Open(2)
	n := 4 * ParallelRowThreshold
	keys := make([]float64, n)
	rng := rand.New(rand.NewSource(23))
	for i := range keys {
		keys[i] = float64(rng.Intn(97)) / 3
	}
	perm := db.SortStable(n, func(a, b int) bool { return keys[a] < keys[b] })
	for i := 1; i < n; i++ {
		ka, kb := keys[perm[i-1]], keys[perm[i]]
		if ka > kb {
			t.Fatalf("perm not sorted at %d: %v > %v", i, ka, kb)
		}
		if ka == kb && perm[i-1] > perm[i] {
			t.Fatalf("tie order violated at %d: %d before %d", i, perm[i-1], perm[i])
		}
	}
}
