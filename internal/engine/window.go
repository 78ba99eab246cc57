package engine

import (
	"fmt"
	"sync"
)

// WindowSpec describes an ordered, partitioned window computation — the
// §3.1.2 "Window Aggregates for Stateful Iteration" pattern: "For settings
// where the current iteration depends on previous iterations, SQL's
// windowed aggregate feature can be used to carry state across
// iterations", the construction Wang et al. used for in-database MCMC.
type WindowSpec struct {
	// PartitionBy groups rows; nil puts everything in one partition
	// (keyed "").
	PartitionBy func(Row) string
	// OrderBy orders rows within each partition (required).
	OrderBy func(a, b Row) bool
}

// RunWindow folds each partition's rows in order, carrying state across
// rows and emitting one output value per row:
//
//	SELECT step(...) OVER (PARTITION BY p ORDER BY o) FROM t
//
// init produces each partition's starting state; step consumes the state
// and a row, returning the updated state and that row's output value.
// Partitions are processed in parallel; within a partition the fold is
// strictly sequential in the specified order.
func (db *DB) RunWindow(t *Table, spec WindowSpec, init func() any, step func(state any, row Row) (any, any)) (map[string][]any, error) {
	if spec.OrderBy == nil {
		return nil, fmt.Errorf("engine: RunWindow requires OrderBy")
	}
	db.queries.Add(1)
	// The latch spans gather AND compute: partitions hold Row handles
	// into segment storage, which must not move until step() is done.
	defer latchRead(t)()
	// Gather row handles per partition. Row handles are stable: they
	// reference (segment, index) positions.
	parts := map[string][]Row{}
	for _, seg := range t.segs {
		for r := 0; r < seg.n; r++ {
			row := Row{seg: seg, idx: r}
			key := ""
			if spec.PartitionBy != nil {
				key = spec.PartitionBy(row)
			}
			parts[key] = append(parts[key], row)
		}
		db.rowsScanned.Add(int64(seg.n))
	}
	return db.foldWindow(parts, spec.OrderBy, init, step), nil
}

// foldWindow sorts and folds every partition, in parallel across
// partitions. Each partition's values come back in its rows' sorted
// order; ties keep the order rows appear in the input slice.
func (db *DB) foldWindow(parts map[string][]Row, orderBy func(a, b Row) bool, init func() any, step func(state any, row Row) (any, any)) map[string][]any {
	out := make(map[string][]any, len(parts))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for key, rows := range parts {
		wg.Add(1)
		go func(key string, rows []Row) {
			defer wg.Done()
			// Large partitions sort with per-worker partial sorts + a
			// stable pairwise merge (SortStable); small ones inline. The
			// fold itself is strictly sequential in the sorted order.
			perm := db.SortStable(len(rows), func(a, b int) bool { return orderBy(rows[a], rows[b]) })
			sorted := make([]Row, len(rows))
			for i, p := range perm {
				sorted[i] = rows[p]
			}
			state := init()
			vals := make([]any, len(rows))
			for i, row := range sorted {
				state, vals[i] = step(state, row)
			}
			mu.Lock()
			out[key] = vals
			mu.Unlock()
		}(key, rows)
	}
	wg.Wait()
	return out
}
