package engine

import "time"

// QueryStats reports the timing of one instrumented aggregate query.
//
// On a machine with fewer physical cores than configured segments, WallTime
// stops improving once cores are saturated, while MaxSegmentTime — the
// critical path of a true shared-nothing cluster, where every segment is
// its own processor — keeps shrinking as rows per segment fall. The
// Figure 4/5 harness reports both and EXPERIMENTS.md explains the
// substitution.
type QueryStats struct {
	// WallTime is the elapsed time of the whole query.
	WallTime time.Duration
	// MaxSegmentTime is the busy time of the slowest segment (the
	// cluster-critical-path metric).
	MaxSegmentTime time.Duration
	// TotalSegmentTime is the summed busy time of all segments (the
	// cluster's aggregate work).
	TotalSegmentTime time.Duration
	// Rows is the number of rows fed through transition functions.
	Rows int64
}

// RunInstrumented is Run with per-segment timing: each segment folds as
// one unit through the same fold helper Run uses per morsel, so the timed
// loop is the loop a statement runs. Results are identical to Run up to
// the per-morsel merge order; only the bookkeeping differs.
func (db *DB) RunInstrumented(t *Table, agg Aggregate) (any, QueryStats, error) {
	db.queries.Add(1)
	start := time.Now()
	states := make([]any, len(t.segs))
	segTimes := make([]time.Duration, len(t.segs))
	err := db.parallelSegments(t, func(i int, seg *Segment) error {
		segStart := time.Now()
		states[i] = foldRows(agg, seg, 0, seg.n)
		segTimes[i] = time.Since(segStart)
		db.rowsScanned.Add(int64(seg.n))
		return nil
	})
	var qs QueryStats
	if err != nil {
		return nil, qs, err
	}
	v, err := mergeFinal(agg, states)
	qs.WallTime = time.Since(start)
	qs.Rows = t.Count()
	for _, d := range segTimes {
		qs.TotalSegmentTime += d
		qs.MaxSegmentTime = max(qs.MaxSegmentTime, d)
	}
	return v, qs, err
}

// SimulatedBreakdown reports per-segment busy times plus the coordinator
// tail (merge + final) of one RunSimulatedDetailed execution.
type SimulatedBreakdown struct {
	// SegmentTimes[i] is segment i's transition-loop duration.
	SegmentTimes []time.Duration
	// Tail is the merge + final duration.
	Tail time.Duration
}

// RunSimulatedDetailed is RunSimulated returning the full per-segment
// breakdown, so harnesses can de-noise each segment independently (taking
// per-segment minima across trials) before forming the critical path.
func (db *DB) RunSimulatedDetailed(t *Table, agg Aggregate) (any, SimulatedBreakdown, error) {
	db.queries.Add(1)
	bd := SimulatedBreakdown{SegmentTimes: make([]time.Duration, len(t.segs))}
	states := make([]any, len(t.segs))
	for i, seg := range t.segs {
		segStart := time.Now()
		states[i] = foldRows(agg, seg, 0, seg.n)
		bd.SegmentTimes[i] = time.Since(segStart)
		db.rowsScanned.Add(int64(seg.n))
	}
	mergeStart := time.Now()
	v, err := mergeFinal(agg, states)
	bd.Tail = time.Since(mergeStart)
	return v, bd, err
}

// RunSimulated executes the aggregate processing segments one at a time,
// timing each in isolation, and reports MaxSegmentTime as the simulated
// cluster time: on a real shared-nothing cluster every segment has its own
// processor, so query latency is the slowest segment's time plus the
// (tiny) merge/final tail. Use this when the host machine has fewer cores
// than the configured segment count and wall-time speedup would saturate.
func (db *DB) RunSimulated(t *Table, agg Aggregate) (any, QueryStats, error) {
	start := time.Now()
	v, bd, err := db.RunSimulatedDetailed(t, agg)
	qs := QueryStats{Rows: t.Count()}
	for _, d := range bd.SegmentTimes {
		qs.TotalSegmentTime += d
		qs.MaxSegmentTime = max(qs.MaxSegmentTime, d)
	}
	// Merge and final run on the coordinator after the slowest segment in
	// a real cluster, so they are added to the critical path.
	qs.MaxSegmentTime += bd.Tail
	qs.WallTime = time.Since(start)
	return v, qs, err
}
