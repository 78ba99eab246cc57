package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Aggregate is the engine's user-defined aggregate contract, identical to
// the three-function pattern the paper describes in §3.1.1:
//
//  1. Transition folds one row into a transition state.
//  2. Merge combines two transition states (needed for parallel execution).
//  3. Final transforms a transition state into the output value.
//
// Init produces the identity state handed to the first Transition call on
// each morsel. Transition may mutate and return its input state (the fast
// path) or return a fresh one. An aggregate is correct under parallelism
// iff Transition is insensitive to row order and Merge is associative and
// commutative with Init as identity — properties the engine's tests check.
//
// An aggregate whose inner loop wants to see many rows at once (§4.1–4.2:
// the transition as a tuned kernel over array types) also implements
// BatchAggregate. The whole-table drivers — Run/RunCtx, RunInstrumented,
// RunSimulated* — then hand it each morsel as typed ColBatch windows
// instead of calling Transition per row; there is no switch to turn that
// off. The row-taking driver (RunGroupBy) keeps calling Transition, which
// a batch-only FuncAggregate serves with a one-row ColBatch, so a batch
// learner writes one transition.
type Aggregate interface {
	Init() any
	Transition(state any, row Row) any
	Merge(a, b any) any
	Final(state any) (any, error)
}

// BatchAggregate is an Aggregate with a batch transition: TransitionBatch
// folds the rows of b, in row order, into state. Batches of one morsel
// arrive in row order on one worker and never span segments, and the
// windows are a function of the table's shape only (BatchSize-aligned
// within each segment), never of the worker count. Folding a batch must
// equal folding its rows one at a time.
type BatchAggregate interface {
	Aggregate
	TransitionBatch(state any, b ColBatch) any
}

// FuncAggregate adapts closures into an Aggregate, the lightweight way
// method packages declare UDAs. Set TransitionFn, TransitionBatchFn or
// both: whichever is missing is derived from the other (a row becomes a
// one-row batch, a batch a loop over its rows).
type FuncAggregate struct {
	InitFn            func() any
	TransitionFn      func(state any, row Row) any
	TransitionBatchFn func(state any, b ColBatch) any
	MergeFn           func(a, b any) any
	FinalFn           func(state any) (any, error)
}

// Init implements Aggregate.
func (f FuncAggregate) Init() any { return f.InitFn() }

// Transition implements Aggregate.
func (f FuncAggregate) Transition(state any, row Row) any {
	if f.TransitionFn == nil {
		return f.TransitionBatchFn(state, ColBatch{seg: row.seg, off: row.idx, n: 1})
	}
	return f.TransitionFn(state, row)
}

// TransitionBatch implements BatchAggregate.
func (f FuncAggregate) TransitionBatch(state any, b ColBatch) any {
	if f.TransitionBatchFn != nil {
		return f.TransitionBatchFn(state, b)
	}
	for i := 0; i < b.n; i++ {
		state = f.TransitionFn(state, Row{seg: b.seg, idx: b.off + i})
	}
	return state
}

// Merge implements Aggregate.
func (f FuncAggregate) Merge(a, b any) any { return f.MergeFn(a, b) }

// Final implements Aggregate.
func (f FuncAggregate) Final(state any) (any, error) { return f.FinalFn(state) }

// foldRows folds rows [off, off+n) of seg into a fresh state: through the
// batch transition, one BatchSize window at a time, when agg has one
// (decided once per call, never per row), row by row otherwise. Every
// whole-table driver folds its morsels (or whole segments) through here,
// so the §4.4 harness times exactly the loop a statement runs.
func foldRows(agg Aggregate, seg *Segment, off, n int) any {
	state := agg.Init()
	end := off + n
	if ba, ok := agg.(BatchAggregate); ok {
		for ; off < end; off += BatchSize {
			state = ba.TransitionBatch(state, ColBatch{seg: seg, off: off, n: min(BatchSize, end-off)})
		}
		return state
	}
	for r := off; r < end; r++ {
		state = agg.Transition(state, Row{seg: seg, idx: r})
	}
	return state
}

// mergeFinal merges per-morsel states left-to-right and finalizes.
func mergeFinal(agg Aggregate, states []any) (any, error) {
	merged := states[0]
	for _, s := range states[1:] {
		merged = agg.Merge(merged, s)
	}
	return agg.Final(merged)
}

// ParallelRowThreshold is the minimum total row count for which the
// segment drivers spin up a worker pool. Below it the per-query
// goroutine spawn and synchronization cost more than the scan itself
// (a few microseconds on small tables), so execution stays on the
// calling goroutine. Exported so callers (and docs) can reason about
// the lane the engine will pick.
const ParallelRowThreshold = 4096

// MorselRows is the number of rows in one scheduling morsel: the unit of
// work a scan worker claims from the shared cursor. A multiple of
// BatchSize so sub-segment morsels slice into exactly the same ColBatch
// windows as a whole-segment scan would, and small enough that a table
// with fewer segments than cores still fans out across the pool.
const MorselRows = 4 * BatchSize

// morsel is one contiguous run of rows of one segment, the scheduling
// unit of the scan drivers. The decomposition of a table into morsels is
// a function of the table's shape only — never of the worker count — so
// every execution mode (sequential, pooled, any GOMAXPROCS) folds rows
// into the same per-morsel states and merges them in the same order,
// keeping results bit-identical across modes.
type morsel struct {
	seg    *Segment
	segIdx int
	off    int
	n      int
}

// tableMorsels decomposes t into morsels in (segment, offset) order.
// Segments at or below MorselRows stay whole (one morsel per segment,
// including empty segments, so merge trees on small tables are exactly
// the per-segment trees of earlier versions); larger segments split at
// MorselRows boundaries, which are BatchSize-aligned by construction.
// The caller holds t's data latch, and scans the morsels under that same
// latch: an append in between could grow a segment past the
// decomposition (and past any buffer sized from it).
func tableMorsels(t *Table) []morsel {
	ms := make([]morsel, 0, len(t.segs))
	for i, seg := range t.segs {
		if seg.n <= MorselRows {
			ms = append(ms, morsel{seg: seg, segIdx: i, off: 0, n: seg.n})
			continue
		}
		for off := 0; off < seg.n; off += MorselRows {
			n := seg.n - off
			if n > MorselRows {
				n = MorselRows
			}
			ms = append(ms, morsel{seg: seg, segIdx: i, off: off, n: n})
		}
	}
	return ms
}

// ScanMorsels reports the number of morsels a scan of t would schedule
// right now. EXPLAIN renders this next to the worker count; a scan's own
// per-morsel buffers are sized from inside its latch instead (the start
// hook of runMorsels, the gather of ForEachBatchCtx).
func (db *DB) ScanMorsels(t *Table) int {
	defer latchRead(t)()
	n := 0
	for _, seg := range t.segs {
		if seg.n <= MorselRows {
			n++
			continue
		}
		n += (seg.n + MorselRows - 1) / MorselRows
	}
	return n
}

// morselWorkers returns the number of workers a scan of t should use:
// capped by GOMAXPROCS and the morsel count, collapsing to 1 —
// sequential execution on the calling goroutine — for small tables.
func (db *DB) morselWorkers(t *Table, nMorsels int) int {
	w := runtime.GOMAXPROCS(0)
	if nMorsels < w {
		w = nMorsels
	}
	if w <= 1 {
		return 1
	}
	if t.Count() < ParallelRowThreshold {
		return 1
	}
	return w
}

// runMorsels takes t's shared data latch, decomposes t into morsels under
// it, hands their count to start so the caller can size per-morsel state
// from the very decomposition it scans, then runs fn once per morsel and
// collects the first error (in morsel order). Each invocation owns its
// morsel's row range exclusively for the call.
//
// Execution is morsel-driven: a pool of up to GOMAXPROCS workers pulls
// morsel indices from a shared cursor until the table is drained, so a
// table with fewer segments than cores still saturates the pool and no
// worker waits behind a slow sibling. Results stay deterministic (and
// bit-identical across worker counts) because per-morsel state is
// indexed by morsel, rows within a morsel fold in row order on one
// worker, and every caller merges the per-morsel states left-to-right
// in (segment, offset) order afterwards. Tables below
// ParallelRowThreshold run inline on the calling goroutine.
// Cancellation is checked at morsel boundaries: the sequential loop
// before each morsel, the pool before each claim. A cancelled scan
// therefore stops within one morsel (at most MorselRows rows per worker)
// and returns ctx.Err().
func (db *DB) runMorsels(ctx context.Context, t *Table, start func(n int), fn func(i int, m morsel) error) error {
	defer latchRead(t)()
	ms := tableMorsels(t)
	start(len(ms))
	return db.runMorselsLatched(ctx, t, ms, fn)
}

// runMorselsLatched is runMorsels for callers that already hold t's data
// latch (the in-place updaters hold it exclusively; the join probe holds
// a shared latch spanning both inputs).
func (db *DB) runMorselsLatched(ctx context.Context, t *Table, ms []morsel, fn func(i int, m morsel) error) error {
	db.morsels.Add(int64(len(ms)))
	return db.runIndexed(ctx, db.morselWorkers(t, len(ms)), len(ms), func(i int) error { return fn(i, ms[i]) })
}

// runIndexed runs fn once per index in [0, n) and returns the first error
// in index order: inline on the calling goroutine when workers <= 1,
// otherwise on a pool of workers claiming indices from a shared cursor,
// so no worker waits behind a slow sibling. Cancellation is checked
// before each index is claimed, and a cancelled run returns ctx.Err().
func (db *DB) runIndexed(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers <= 1 {
		db.seqScans.Inc()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	db.parScans.Inc()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// RunTasks runs fn once per task index in [0, n) on the scan worker
// pool and collects the first error in task order. It is the scheduling
// primitive for callers that build their own work decomposition over
// t.Morsels() — each task typically chains through a private subset of
// the table's morsels (a model replica in IGD training). The pool is
// sized like a scan of t: capped by GOMAXPROCS and n, collapsing to an
// inline sequential loop for tables below ParallelRowThreshold. One
// RunTasks call counts as one engine query; callers report the rows
// they gather via AddRowsScanned.
func (db *DB) RunTasks(t *Table, n int, fn func(task int) error) error {
	db.queries.Add(1)
	defer latchRead(t)()
	return db.runIndexed(context.Background(), db.morselWorkers(t, n), n, fn)
}

// AddRowsScanned reports rows read outside the built-in scan drivers
// (RunTasks-based training epochs) so engine_rows_scanned stays an
// accurate account of transition work.
func (db *DB) AddRowsScanned(n int64) { db.rowsScanned.Add(n) }

// segmentWorkers returns the number of workers for drivers that must
// keep whole segments on one worker (ForEachSegment, SelectInto, join
// materialization — anything appending to per-segment output storage):
// sized like a scan whose morsels are the segments.
func (db *DB) segmentWorkers(t *Table) int { return db.morselWorkers(t, len(t.segs)) }

// ScanWorkers reports the number of morsel workers a scan of t would
// use right now (1 means the sequential fallback). EXPLAIN renders this
// so the parallel-vs-sequential decision is visible before execution.
func (db *DB) ScanWorkers(t *Table) int { return db.morselWorkers(t, db.ScanMorsels(t)) }

// parallelSegments runs fn once per segment under t's shared data latch
// and collects the first error (in segment order). Each invocation owns
// its segment exclusively for the call. It is the segment-granular
// sibling of runMorsels, kept for drivers whose output is appended per
// segment and therefore cannot split a segment across workers.
func (db *DB) parallelSegments(t *Table, fn func(segIdx int, seg *Segment) error) error {
	defer latchRead(t)()
	return db.parallelSegmentsLatched(context.Background(), t, fn)
}

// parallelSegmentsLatched is parallelSegments for callers that already
// hold the data latch on t (and on any other table fn reads).
func (db *DB) parallelSegmentsLatched(ctx context.Context, t *Table, fn func(segIdx int, seg *Segment) error) error {
	return db.runIndexed(ctx, db.segmentWorkers(t), len(t.segs), func(i int) error { return fn(i, t.segs[i]) })
}

// Run executes a user-defined aggregate over the whole table:
// SELECT agg(...) FROM t. Transition runs morsel-parallel; the per-morsel
// states are merged left-to-right and the merged state finalized.
func (db *DB) Run(t *Table, agg Aggregate) (any, error) {
	return db.RunCtx(context.Background(), t, agg)
}

// RunCtx is Run with cancellation: ctx is checked at morsel boundaries,
// and a cancelled scan returns ctx.Err() without finalizing.
func (db *DB) RunCtx(ctx context.Context, t *Table, agg Aggregate) (any, error) {
	db.queries.Add(1)
	var states []any
	err := db.runMorsels(ctx, t, func(n int) { states = make([]any, n) }, func(i int, m morsel) error {
		states[i] = foldRows(agg, m.seg, m.off, m.n)
		db.rowsScanned.Add(int64(m.n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeFinal(agg, states)
}

// GroupResult is one group's aggregate output.
type GroupResult struct {
	Key   string
	Value any
}

// GroupKey is a compact composite grouping key: a comparable struct, so a
// hash aggregate can key its map without rendering the row's group columns
// into a formatted string (which costs an allocation per row). Single-key
// grouping uses exactly one field — an Int column goes in Int, a String
// column in Str — and multi-column keys encode into Str. Callers only need
// the key to be injective; any per-group metadata (e.g. the original key
// values) rides along in the aggregate state.
type GroupKey struct {
	Int int64
	Str string
}

// RunGroupBy executes SELECT key, agg(...) FROM t GROUP BY key. The key
// function projects each row to a group key. Partial per-key states are
// built morsel-parallel and merged in morsel order, mirroring a parallel
// hash aggregate.
func (db *DB) RunGroupBy(t *Table, key func(Row) string, agg Aggregate) (map[string]any, error) {
	return runGroupBy(context.Background(), db, t, key, agg)
}

// runGroupBy is the parallel hash-aggregate skeleton under RunGroupBy,
// generic in the key so the engine's tests can run it over GroupKey as
// the row-at-a-time reference for RunGroupByBatched.
func runGroupBy[K comparable](ctx context.Context, db *DB, t *Table, key func(Row) K, agg Aggregate) (map[K]any, error) {
	db.queries.Add(1)
	var partials []map[K]any
	err := db.runMorsels(ctx, t, func(n int) { partials = make([]map[K]any, n) }, func(i int, m morsel) error {
		local := make(map[K]any)
		end := m.off + m.n
		for r := m.off; r < end; r++ {
			row := Row{seg: m.seg, idx: r}
			k := key(row)
			state, ok := local[k]
			if !ok {
				state = agg.Init()
			}
			local[k] = agg.Transition(state, row)
		}
		partials[i] = local
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
				merged[k] = agg.Merge(existing, s)
			} else {
				merged[k] = s
			}
		}
	}
	out := make(map[K]any, len(merged))
	for k, s := range merged {
		v, err := agg.Final(s)
		if err != nil {
			return nil, fmt.Errorf("group %v: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// ForEachSegment runs fn sequentially within each segment but parallel
// across segments. fn receives every row of its segment in order and may
// keep segment-local state without locking.
func (db *DB) ForEachSegment(t *Table, fn func(segIdx int, row Row) error) error {
	db.queries.Add(1)
	return db.parallelSegments(t, func(i int, seg *Segment) error {
		for r := 0; r < seg.n; r++ {
			if err := fn(i, Row{seg: seg, idx: r}); err != nil {
				return err
			}
		}
		db.rowsScanned.Add(int64(seg.n))
		return nil
	})
}

// Rows returns all rows of the table materialized as []any slices in
// segment order. Intended for small results (model tables, test probes) —
// bulk data should stay inside the engine, as §3.1.2 insists.
func (db *DB) Rows(t *Table) [][]any {
	db.queries.Add(1)
	defer latchRead(t)()
	var out [][]any
	for _, seg := range t.segs {
		for r := 0; r < seg.n; r++ {
			row := make([]any, len(t.schema))
			for c, col := range t.schema {
				switch col.Kind {
				case Float:
					row[c] = seg.cols[c].floats[r]
				case Vector:
					row[c] = seg.cols[c].vecs[r]
				case Int:
					row[c] = seg.cols[c].ints[r]
				case String:
					row[c] = seg.cols[c].strs[r]
				case Bool:
					row[c] = seg.cols[c].bools[r]
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// SelectInto creates a new table from the rows of t that satisfy pred,
// carrying over the projected columns — CREATE TABLE dst AS SELECT cols
// FROM t WHERE pred. A nil pred keeps every row; nil cols keeps every
// column. The projection preserves each row's segment, so no data moves
// between segments (a local scan, as in Greenplum).
func (db *DB) SelectInto(dst string, t *Table, pred func(Row) bool, cols []string) (*Table, error) {
	db.queries.Add(1)
	var idxs []int
	if cols == nil {
		idxs = make([]int, len(t.schema))
		for i := range idxs {
			idxs[i] = i
		}
	} else {
		for _, name := range cols {
			i := t.schema.Index(name)
			if i < 0 {
				return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
			}
			idxs = append(idxs, i)
		}
	}
	schema := make(Schema, len(idxs))
	for i, src := range idxs {
		schema[i] = t.schema[src]
	}
	out, err := db.createTable(dst, schema, t.temp)
	if err != nil {
		return nil, err
	}
	var total int64
	var mu sync.Mutex
	err = db.parallelSegments(t, func(i int, seg *Segment) error {
		dseg := out.segs[i]
		var kept int64
		for r := 0; r < seg.n; r++ {
			row := Row{seg: seg, idx: r}
			if pred != nil && !pred(row) {
				continue
			}
			for di, src := range idxs {
				switch t.schema[src].Kind {
				case Float:
					dseg.cols[di].floats = append(dseg.cols[di].floats, seg.cols[src].floats[r])
				case Vector:
					dseg.cols[di].vecs = append(dseg.cols[di].vecs, seg.cols[src].vecs[r])
				case Int:
					dseg.cols[di].ints = append(dseg.cols[di].ints, seg.cols[src].ints[r])
				case String:
					dseg.cols[di].strs = append(dseg.cols[di].strs, seg.cols[src].strs[r])
				case Bool:
					dseg.cols[di].bools = append(dseg.cols[di].bools, seg.cols[src].bools[r])
				}
			}
			dseg.n++
			kept++
		}
		db.rowsScanned.Add(int64(seg.n))
		mu.Lock()
		total += kept
		mu.Unlock()
		return nil
	})
	if err != nil {
		_ = db.DropTable(dst) // don't leak a half-built staging table
		return nil, err
	}
	out.mu.Lock()
	out.totalRows = total
	out.mu.Unlock()
	return out, nil
}

// UpdateInt rewrites an Int column in place: UPDATE t SET col = fn(row).
// The paper's k-means variant uses exactly this to store each point's
// current centroid id (§4.3). Updates run segment-parallel.
func (db *DB) UpdateInt(t *Table, col string, fn func(Row) int64) error {
	ci := t.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	if t.schema[ci].Kind != Int {
		return fmt.Errorf("%w: %q is %s", ErrType, col, t.schema[ci].Kind)
	}
	db.queries.Add(1)
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	err := db.runMorselsLatched(context.Background(), t, tableMorsels(t), func(i int, m morsel) error {
		end := m.off + m.n
		for r := m.off; r < end; r++ {
			m.seg.cols[ci].ints[r] = fn(Row{seg: m.seg, idx: r})
		}
		db.rowsScanned.Add(int64(m.n))
		return nil
	})
	t.version.Add(1) // after the rewrite completes; see Insert
	return err
}
