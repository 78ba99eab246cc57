package engine

// Vectorized (column-batch) execution support. The per-row drivers in
// exec.go invoke a Transition closure once per row; for compiled query
// pipelines that indirection is the dominant cost (ROADMAP: the paper's
// §4.4a overhead argument extended to instruction counts). The batch
// drivers below instead hand the kernel a ColBatch — a typed, zero-copy
// window over ~BatchSize contiguous rows of one segment's columnar
// storage — so the kernel can run tight loops over []float64 / []int64 /
// []string / []bool lanes. Batches never span segments, so kernels keep
// the same no-synchronization contract per segment that Transition has.

import "context"

// BatchSize is the number of rows handed to a batch kernel at a time.
// Sized so one float lane (8 KiB) plus a few scratch lanes stay inside
// L1/L2 cache while amortizing the per-batch dispatch overhead.
const BatchSize = 1024

// ColBatch is a typed view over a contiguous run of rows within one
// segment. Lane accessors return sub-slices of the segment's columnar
// storage — no copying — indexed 0..Len()-1 within the batch. Callers
// must not mutate or retain the lanes beyond the kernel call unless they
// own the table.
type ColBatch struct {
	seg *Segment
	off int
	n   int
}

// Len returns the number of rows in the batch.
func (b ColBatch) Len() int { return b.n }

// Offset returns the batch's starting row index within its segment.
func (b ColBatch) Offset() int { return b.off }

// Floats returns the float64 lane of the given column.
func (b ColBatch) Floats(col int) []float64 { return b.seg.cols[col].floats[b.off : b.off+b.n] }

// Ints returns the int64 lane of the given column.
func (b ColBatch) Ints(col int) []int64 { return b.seg.cols[col].ints[b.off : b.off+b.n] }

// Strings returns the string lane of the given column.
func (b ColBatch) Strings(col int) []string { return b.seg.cols[col].strs[b.off : b.off+b.n] }

// Bools returns the bool lane of the given column.
func (b ColBatch) Bools(col int) []bool { return b.seg.cols[col].bools[b.off : b.off+b.n] }

// Vectors returns the []float64 lane of the given column.
func (b ColBatch) Vectors(col int) [][]float64 { return b.seg.cols[col].vecs[b.off : b.off+b.n] }

// Row returns a row cursor for batch-local index i, for per-row
// fallbacks inside a batch kernel (composite group keys, boxed values).
func (b ColBatch) Row(i int) Row { return Row{seg: b.seg, idx: b.off + i} }

// Validity is a per-batch validity bitmap: Validity[i] reports whether
// row i of the batch carries a real value (true) or NULL padding
// (false). A nil Validity means every row is valid. The engine's
// columnar storage itself has no NULL representation — invalid rows
// hold zero values — so validity is always derived from a Bool marker
// column (the outer join's MatchedCol).
type Validity []bool

// ValidityFromBool exposes a Bool column's lane as the batch's validity
// bitmap: true where the marker is set. This is how NULL-aware batch
// kernels read the LEFT JOIN padding marker without boxing rows.
func (b ColBatch) ValidityFromBool(col int) Validity {
	return Validity(b.seg.cols[col].bools[b.off : b.off+b.n])
}

// forEachBatch slices one segment into BatchSize windows in row order.
func forEachBatch(seg *Segment, fn func(b ColBatch) error) error {
	return forEachBatchRange(seg, 0, seg.n, fn)
}

// forEachBatchRange slices rows [off, off+n) of one segment into
// BatchSize windows in row order. Morsel boundaries are BatchSize-
// aligned (MorselRows is a multiple of BatchSize), so the batches a
// morsel sees are exactly the batches a whole-segment scan would
// produce for the same rows.
func forEachBatchRange(seg *Segment, off, n int, fn func(b ColBatch) error) error {
	end := off + n
	for o := off; o < end; o += BatchSize {
		bn := end - o
		if bn > BatchSize {
			bn = BatchSize
		}
		if err := fn(ColBatch{seg: seg, off: o, n: bn}); err != nil {
			return err
		}
	}
	return nil
}

// RunBatched executes a batched aggregate pipeline over the whole table:
// newState creates one morsel-local state (typically holding reusable
// scratch vectors alongside accumulators), process folds one batch into
// that state, and merge combines two morsel states. Morsels run in
// parallel; batches within a morsel arrive sequentially in row order,
// and the per-morsel states are merged left-to-right in (segment,
// offset) order — the same determinism contract as Run. The caller
// finalizes the merged state itself (there is no Final hook).
func (db *DB) RunBatched(t *Table,
	newState func(morselIdx int) any,
	process func(state any, b ColBatch) error,
	merge func(a, b any) any,
) (any, error) {
	return db.RunBatchedCtx(context.Background(), t, newState, process, merge)
}

// RunBatchedCtx is RunBatched with cancellation at morsel boundaries.
func (db *DB) RunBatchedCtx(ctx context.Context, t *Table,
	newState func(morselIdx int) any,
	process func(state any, b ColBatch) error,
	merge func(a, b any) any,
) (any, error) {
	db.queries.Add(1)
	var states []any
	err := db.runMorsels(ctx, t, func(n int) { states = make([]any, n) }, func(i int, m morsel) error {
		state := newState(i)
		if err := forEachBatchRange(m.seg, m.off, m.n, func(b ColBatch) error { return process(state, b) }); err != nil {
			return err
		}
		states[i] = state
		db.rowsScanned.Add(int64(m.n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := states[0]
	for _, s := range states[1:] {
		merged = merge(merged, s)
	}
	return merged, nil
}

// RunGroupByBatched is the hash-aggregate counterpart of RunBatched: the
// kernel maintains a per-morsel map from GroupKey to group state inside
// its morsel state (filled by process), groups extracts that map once
// the morsel is exhausted, and the engine merges the per-morsel maps
// key-by-key in morsel order using merge. Group states are returned
// unfinalized per key; the caller finalizes. The SQL executor groups on
// RunBatched with its own per-morsel group tables; this driver serves
// hand-written pipelines (the repo benchmark's direct calls).
func (db *DB) RunGroupByBatched(t *Table,
	newState func(morselIdx int) any,
	process func(state any, b ColBatch) error,
	groups func(state any) map[GroupKey]any,
	merge func(a, b any) any,
) (map[GroupKey]any, error) {
	db.queries.Add(1)
	var partials []map[GroupKey]any
	err := db.runMorsels(context.Background(), t, func(n int) { partials = make([]map[GroupKey]any, n) }, func(i int, m morsel) error {
		state := newState(i)
		if err := forEachBatchRange(m.seg, m.off, m.n, func(b ColBatch) error { return process(state, b) }); err != nil {
			return err
		}
		partials[i] = groups(state)
		db.rowsScanned.Add(int64(m.n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := partials[0]
	for _, local := range partials[1:] {
		for k, s := range local {
			if existing, ok := merged[k]; ok {
				merged[k] = merge(existing, s)
			} else {
				merged[k] = s
			}
		}
	}
	return merged, nil
}

// Morsel is the public view of one scheduling morsel: a contiguous run
// of rows within one segment, the unit of work the scan pool hands a
// worker. Training harnesses (internal/igd) schedule their own epoch
// loops over morsels — permuting, partitioning and chaining them —
// while reading row data through the same ColBatch lanes the query
// drivers use.
type Morsel struct {
	seg *Segment
	off int
	n   int
}

// Len returns the number of rows in the morsel.
func (m Morsel) Len() int { return m.n }

// ForEachBatch slices the morsel into BatchSize-aligned ColBatch
// windows in row order — exactly the batches a whole-segment scan would
// produce for the same rows.
func (m Morsel) ForEachBatch(fn func(b ColBatch) error) error {
	return forEachBatchRange(m.seg, m.off, m.n, fn)
}

// Row returns a row cursor for morsel-local index i, for row-at-a-time
// fallbacks (and the row-lane training oracle).
func (m Morsel) Row(i int) Row { return Row{seg: m.seg, idx: m.off + i} }

// Morsels returns the table's scheduling morsels in (segment, offset)
// order: the same decomposition every scan driver uses, a function of
// the table's shape only — never of the worker count — so any schedule
// built over it is deterministic across GOMAXPROCS settings.
func (t *Table) Morsels() []Morsel {
	defer latchRead(t)()
	ms := tableMorsels(t)
	out := make([]Morsel, len(ms))
	for i, m := range ms {
		out[i] = Morsel{seg: m.seg, off: m.off, n: m.n}
	}
	return out
}

// ForEachBatch runs fn over every batch of every morsel: parallel
// across morsels, sequential in row order within one. It is the batched
// analogue of ForEachSegment, for pipelines that vectorize filtering but
// still emit rows (projection scans). fn receives the morsel index —
// 0..ScanMorsels(t)-1 in (segment, offset) order — so callers can keep
// per-morsel output buffers and concatenate them in order afterwards to
// recover the table's row order.
func (db *DB) ForEachBatch(t *Table, fn func(morselIdx int, b ColBatch) error) error {
	return db.ForEachBatchCtx(context.Background(), t, func(_ int, scan func(func(int, ColBatch) error) error) error {
		return scan(fn)
	})
}

// ForEachBatchCtx is ForEachBatch for a caller that keeps per-morsel
// buffers, with cancellation at morsel boundaries. gather is handed the
// number of morsels and a scan that calls fn on every batch as
// ForEachBatch does; both run under one shared latch on t, so the scan
// covers exactly the morsels counted, whatever is appended meanwhile.
func (db *DB) ForEachBatchCtx(ctx context.Context, t *Table, gather func(morsels int, scan func(fn func(morselIdx int, b ColBatch) error) error) error) error {
	defer latchRead(t)()
	ms := tableMorsels(t)
	return gather(len(ms), func(fn func(int, ColBatch) error) error { return db.forEachBatchLatched(ctx, t, ms, fn) })
}

// forEachBatchLatched runs fn over the batches of the morsels ms of t,
// for callers that already hold t's data latch.
func (db *DB) forEachBatchLatched(ctx context.Context, t *Table, ms []morsel, fn func(morselIdx int, b ColBatch) error) error {
	db.queries.Add(1)
	return db.runMorselsLatched(ctx, t, ms, func(i int, m morsel) error {
		if err := forEachBatchRange(m.seg, m.off, m.n, func(b ColBatch) error { return fn(i, b) }); err != nil {
			return err
		}
		db.rowsScanned.Add(int64(m.n))
		return nil
	})
}
