package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MatchedCol is the hidden marker column an outer join appends to its
// output: true on rows that found a build-side match, false on the
// null-padded left rows. The engine's columnar storage has no NULL
// representation, so consumers (the SQL front-end) use this marker to
// reconstruct NULL semantics for the padded right-side columns.
const MatchedCol = "__matched"

// JoinSchema computes the output schema of a hash join without running
// it: all left columns, then all right columns with name collisions
// prefixed by the right table's name and an underscore, plus the
// MatchedCol marker when outer is set. It is exported so a planner can
// resolve column references against the joined shape at plan time.
func JoinSchema(left, right *Table, outer bool) (Schema, error) {
	taken := map[string]bool{}
	schema := make(Schema, 0, len(left.schema)+len(right.schema)+1)
	for _, c := range left.schema {
		taken[c.Name] = true
		schema = append(schema, c)
	}
	for _, c := range right.schema {
		name := c.Name
		if taken[name] {
			name = right.name + "_" + name
		}
		if taken[name] {
			return nil, fmt.Errorf("engine: cannot disambiguate column %q", c.Name)
		}
		taken[name] = true
		schema = append(schema, Column{Name: name, Kind: c.Kind})
	}
	if outer {
		if taken[MatchedCol] {
			return nil, fmt.Errorf("engine: column %q collides with the outer-join marker", MatchedCol)
		}
		schema = append(schema, Column{Name: MatchedCol, Kind: Bool})
	}
	return schema, nil
}

// joinKey identifies one cached join: its inputs by pointer (a dropped
// and re-created table is a different input) and the join's shape.
type joinKey struct {
	left, right       *Table
	leftKey, rightKey string
	outer             bool
}

// joinEntry is one join's cache slot. build single-flights the
// materialization; res is the last completed build, read lock-free.
type joinEntry struct {
	build sync.Mutex
	res   atomic.Pointer[joinResult]
}

// joinResult is a materialization stamped with the input versions read
// before it was built.
type joinResult struct {
	out               *Table
	leftVer, rightVer int64
}

// current returns the entry's materialization while both inputs still
// carry the versions it was built from, else nil.
func (e *joinEntry) current(k joinKey) *Table {
	r := e.res.Load()
	if r != nil && r.leftVer == k.left.Version() && r.rightVer == k.right.Version() {
		return r.out
	}
	return nil
}

// Join returns the equi-join HashJoinTemp describes, from the database's
// join cache: hit reports that an earlier build was reused. A build is
// reused while both inputs' Versions equal the ones read before it
// started, so a write that lands mid-build makes the next call rebuild
// instead of trusting a torn snapshot. Concurrent misses on one join
// wait for a single build and share it.
//
// The materialization is a detached table, never in the catalog, and
// callers must not write to it. The cache holds at most one
// materialization per distinct (left, right, leftKey, rightKey, outer)
// over tables in the catalog: a rebuild replaces the stale one, and
// DropTable of either input discards the join's entry. Inputs that are
// not in the catalog are joined without caching.
func (db *DB) Join(ctx context.Context, left *Table, leftKey string, right *Table, rightKey string, outer bool) (*Table, bool, error) {
	k := joinKey{left: left, right: right, leftKey: leftKey, rightKey: rightKey, outer: outer}
	e := db.joinEntry(k)
	if e == nil {
		out, err := db.buildJoin(ctx, "join", left, leftKey, right, rightKey, outer)
		return out, false, err
	}
	if out := e.current(k); out != nil {
		return out, true, nil
	}
	e.build.Lock()
	defer e.build.Unlock()
	if out := e.current(k); out != nil {
		return out, true, nil
	}
	lv, rv := left.Version(), right.Version()
	out, err := db.buildJoin(ctx, "join", left, leftKey, right, rightKey, outer)
	if err != nil {
		return nil, false, err
	}
	// Under the catalog lock, so a DropTable of an input either ran first
	// (the entry is gone: this build is used once, not cached) or runs
	// after and discards the entry with its result.
	db.mu.RLock()
	if db.joins[k] == e {
		e.res.Store(&joinResult{out: out, leftVer: lv, rightVer: rv})
	}
	db.mu.RUnlock()
	return out, false, nil
}

// JoinCached reports whether Join would reuse a materialization for these
// arguments now. It builds and registers nothing.
func (db *DB) JoinCached(left *Table, leftKey string, right *Table, rightKey string, outer bool) bool {
	k := joinKey{left: left, right: right, leftKey: leftKey, rightKey: rightKey, outer: outer}
	db.mu.RLock()
	e := db.joins[k]
	db.mu.RUnlock()
	return e != nil && e.current(k) != nil
}

// JoinCacheLen returns the number of joins the cache holds an entry for.
func (db *DB) JoinCacheLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.joins)
}

// joinEntry returns k's cache slot, creating it when both inputs are in
// the catalog. It returns nil when either is not: nothing would ever
// discard that entry.
func (db *DB) joinEntry(k joinKey) *joinEntry {
	db.mu.RLock()
	e := db.joins[k]
	db.mu.RUnlock()
	if e != nil {
		return e
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tables[k.left.name] != k.left || db.tables[k.right.name] != k.right {
		return nil
	}
	if e = db.joins[k]; e == nil {
		e = &joinEntry{}
		db.joins[k] = e
	}
	return e
}

// HashJoinTemp materializes an equi-join of two tables into a uniquely
// named temporary table (prefix-based, like CreateTempTable):
//
//	CREATE TEMP TABLE dst AS
//	SELECT l.*, r.* FROM left l JOIN right r ON l.leftKey = r.rightKey
//
// The join keys must be Int or String columns of matching kind. The right
// side is broadcast: its rows are hashed into one in-memory table that
// every left segment probes, the plan a parallel DBMS picks when the right
// side is small (dimension tables, group keys — the §4.2.1 "join
// construct"). Output rows stay on their left row's segment, so the join
// is local and needs no data movement on the probe side. Right-side
// column-name collisions are resolved as JoinSchema describes.
//
// With outer set it performs a LEFT OUTER join: left rows without a
// build-side match are emitted once, their right-side columns padded
// with zero values and the MatchedCol marker set to false — the
// null-padding wrapper the SQL front-end's LEFT JOIN lowers onto.
//
// The table enters the catalog only once it is complete, and the caller
// drops it. Join is the cached form that leaves the catalog alone.
func (db *DB) HashJoinTemp(prefix string, left *Table, leftKey string, right *Table, rightKey string, outer bool) (*Table, error) {
	return db.HashJoinTempCtx(context.Background(), prefix, left, leftKey, right, rightKey, outer)
}

// HashJoinTempCtx is HashJoinTemp with cancellation during the probe
// phase (the build side is scanned sequentially and is usually the small
// table).
func (db *DB) HashJoinTempCtx(ctx context.Context, prefix string, left *Table, leftKey string, right *Table, rightKey string, outer bool) (*Table, error) {
	out, err := db.buildJoin(ctx, db.nextTempName(prefix), left, leftKey, right, rightKey, outer)
	if err != nil {
		return nil, err
	}
	if err := db.register(out); err != nil {
		return nil, err
	}
	return out, nil
}

// buildJoin runs the hash join into a detached temp table named name,
// with one output segment per left segment.
func (db *DB) buildJoin(ctx context.Context, name string, left *Table, leftKey string, right *Table, rightKey string, outer bool) (*Table, error) {
	buildStart := time.Now()
	lk := left.schema.Index(leftKey)
	if lk < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, leftKey)
	}
	rk := right.schema.Index(rightKey)
	if rk < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, rightKey)
	}
	kind := left.schema[lk].Kind
	if kind != right.schema[rk].Kind {
		return nil, fmt.Errorf("%w: join keys %s vs %s", ErrType, kind, right.schema[rk].Kind)
	}
	if kind != Int && kind != String {
		return nil, fmt.Errorf("%w: join keys must be Int or String, got %s", ErrType, kind)
	}

	schema, err := JoinSchema(left, right, outer)
	if err != nil {
		return nil, err
	}
	out, err := NewDetachedTable(name, schema, len(left.segs))
	if err != nil {
		return nil, err
	}

	// Both inputs stay latched for the whole build + probe: the probe
	// materializes right-side rows through rowRefs captured at build
	// time, so the right table must not move underneath it either.
	defer latchRead(left, right)()

	// Build side: broadcast hash table over the right rows, keyed by the
	// unboxed column value (no per-row interface allocation).
	var buildI map[int64][]rowRef
	var buildS map[string][]rowRef
	if kind == Int {
		buildI = make(map[int64][]rowRef, int(right.Count()))
	} else {
		buildS = make(map[string][]rowRef, int(right.Count()))
	}
	for _, seg := range right.segs {
		if kind == Int {
			lane := seg.cols[rk].ints[:seg.n]
			for r, k := range lane {
				buildI[k] = append(buildI[k], rowRef{seg: seg, idx: int32(r)})
			}
		} else {
			lane := seg.cols[rk].strs[:seg.n]
			for r, k := range lane {
				buildS[k] = append(buildS[k], rowRef{seg: seg, idx: int32(r)})
			}
		}
		db.rowsScanned.Add(int64(seg.n))
	}

	// Probe side: segment-parallel scan of the left table, vectorized —
	// each worker walks its segment's key lane one ColBatch at a time,
	// gathers the (left row, right ref) match pairs for the whole batch,
	// then materializes them column-by-column so the type dispatch runs
	// once per column per batch instead of once per cell. Matches append
	// into the output segment with the same index, so the join stays
	// local to the probe row's segment. Outer joins emit unmatched left
	// rows once with a nil right ref, which materializes as zero padding
	// with MatchedCol=false.
	err = db.parallelSegmentsLatched(ctx, left, func(i int, seg *Segment) error {
		dseg := out.segs[i]
		lefts := make([]int32, 0, BatchSize)
		rights := make([]rowRef, 0, BatchSize)
		err := forEachBatch(seg, func(b ColBatch) error {
			lefts, rights = lefts[:0], rights[:0]
			off := int32(b.Offset())
			if kind == Int {
				for j, k := range b.Ints(lk) {
					matches := buildI[k]
					for _, m := range matches {
						lefts = append(lefts, off+int32(j))
						rights = append(rights, m)
					}
					if outer && len(matches) == 0 {
						lefts = append(lefts, off+int32(j))
						rights = append(rights, rowRef{})
					}
				}
			} else {
				for j, k := range b.Strings(lk) {
					matches := buildS[k]
					for _, m := range matches {
						lefts = append(lefts, off+int32(j))
						rights = append(rights, m)
					}
					if outer && len(matches) == 0 {
						lefts = append(lefts, off+int32(j))
						rights = append(rights, rowRef{})
					}
				}
			}
			appendJoinRows(dseg, left.schema, seg, lefts, right.schema, rights, outer)
			return nil
		})
		if err != nil {
			return err
		}
		db.rowsScanned.Add(int64(seg.n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, seg := range out.segs {
		total += int64(seg.n)
	}
	out.mu.Lock()
	out.totalRows = total
	out.mu.Unlock()
	db.queries.Add(1)
	db.joinBuilds.Inc()
	db.joinBuild.Observe(time.Since(buildStart))
	return out, nil
}

// rowRef points at one build-side row; a nil seg is the outer join's
// null-pad marker.
type rowRef struct {
	seg *Segment
	idx int32
}

// appendJoinRows bulk-appends one probe batch's matches into the output
// segment: for every output row k, the left columns of leftSeg row
// lefts[k] followed by the right columns of rights[k] (zero-padded when
// rights[k].seg is nil), plus the matched marker when outer is set.
// Copies run lane-wise, one column at a time.
func appendJoinRows(dseg *Segment, leftSchema Schema, leftSeg *Segment, lefts []int32, rightSchema Schema, rights []rowRef, outer bool) {
	if len(lefts) == 0 {
		return
	}
	for c, col := range leftSchema {
		dst := &dseg.cols[c]
		switch col.Kind {
		case Float:
			src := leftSeg.cols[c].floats
			for _, li := range lefts {
				dst.floats = append(dst.floats, src[li])
			}
		case Vector:
			src := leftSeg.cols[c].vecs
			for _, li := range lefts {
				dst.vecs = append(dst.vecs, src[li])
			}
		case Int:
			src := leftSeg.cols[c].ints
			for _, li := range lefts {
				dst.ints = append(dst.ints, src[li])
			}
		case String:
			src := leftSeg.cols[c].strs
			for _, li := range lefts {
				dst.strs = append(dst.strs, src[li])
			}
		case Bool:
			src := leftSeg.cols[c].bools
			for _, li := range lefts {
				dst.bools = append(dst.bools, src[li])
			}
		}
	}
	nl := len(leftSchema)
	for c, col := range rightSchema {
		dst := &dseg.cols[nl+c]
		switch col.Kind {
		case Float:
			for _, m := range rights {
				if m.seg == nil {
					dst.floats = append(dst.floats, 0)
				} else {
					dst.floats = append(dst.floats, m.seg.cols[c].floats[m.idx])
				}
			}
		case Vector:
			for _, m := range rights {
				if m.seg == nil {
					dst.vecs = append(dst.vecs, nil)
				} else {
					dst.vecs = append(dst.vecs, m.seg.cols[c].vecs[m.idx])
				}
			}
		case Int:
			for _, m := range rights {
				if m.seg == nil {
					dst.ints = append(dst.ints, 0)
				} else {
					dst.ints = append(dst.ints, m.seg.cols[c].ints[m.idx])
				}
			}
		case String:
			for _, m := range rights {
				if m.seg == nil {
					dst.strs = append(dst.strs, "")
				} else {
					dst.strs = append(dst.strs, m.seg.cols[c].strs[m.idx])
				}
			}
		case Bool:
			for _, m := range rights {
				if m.seg == nil {
					dst.bools = append(dst.bools, false)
				} else {
					dst.bools = append(dst.bools, m.seg.cols[c].bools[m.idx])
				}
			}
		}
	}
	if outer {
		marker := &dseg.cols[nl+len(rightSchema)]
		for _, m := range rights {
			marker.bools = append(marker.bools, m.seg != nil)
		}
	}
	dseg.n += len(lefts)
}
