package engine

import (
	"runtime"
	"slices"
	"sync"
)

// Parallel stable sort. ORDER BY and window partition ordering were the
// last single-threaded stages of a query: the scan and aggregation
// phases fan out over morsels, then one goroutine sorts the whole
// result. SortStable instead sorts per-worker chunks independently and
// merges the sorted runs pairwise, each round's merges running in
// parallel. Stability — and therefore bit-identical output to a plain
// sort.SliceStable under any GOMAXPROCS — holds because the chunks are
// contiguous index ranges, each chunk is sorted stably (pdqsort over the
// index slice with the original index as the final tiebreak), and the merge
// takes the left run's element unless the right run's is strictly
// smaller. A stable sort's output is uniquely determined by the
// comparator, so the chunk count never shows in the result.

// SortStable returns the permutation of [0, n) that sorts it stably by
// less: out[k] is the original index of the k-th smallest element, with
// ties in original order. Callers apply the permutation to their own
// row slices. less must be safe for concurrent calls — above
// ParallelRowThreshold (and with GOMAXPROCS > 1) chunks sort on
// separate goroutines.
func (db *DB) SortStable(n int, less func(a, b int) bool) []int {
	// The order is less, then the index: when a follows b, "not before"
	// takes one call of less instead of two.
	return db.SortFunc(n, func(a, b int) int {
		switch {
		case less(a, b):
			return -1
		case a > b || less(b, a):
			return 1
		}
		return -1
	})
}

// SortFunc is SortStable for a three-way comparator: cmp(a, b) is
// negative when element a sorts before b, positive after it, and zero
// for ties, which keep their original order. A comparator that computes
// a three-way result anyway is called once per comparison.
func (db *DB) SortFunc(n int, cmp func(a, b int) int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n/ParallelRowThreshold {
		// Each chunk should hold at least one threshold's worth of rows;
		// tiny chunks pay merge rounds without amortizing them.
		workers = n / ParallelRowThreshold
	}
	if workers <= 1 {
		db.sortSeq.Inc()
		sortIndexStable(idx, cmp)
		return idx
	}
	db.sortPar.Inc()

	// Phase 1: sort contiguous chunks stably in parallel.
	chunk := (n + workers - 1) / workers
	runs := make([][2]int, 0, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		runs = append(runs, [2]int{lo, hi})
		part := idx[lo:hi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sortIndexStable(part, cmp)
		}()
	}
	wg.Wait()

	// Phase 2: merge adjacent runs pairwise until one run remains. Runs
	// are adjacent index ranges, so each merge works in place over
	// idx[lo:hi] with one shared scratch buffer (disjoint slices per
	// merge within a round).
	buf := make([]int, n)
	for len(runs) > 1 {
		merged := make([][2]int, 0, (len(runs)+1)/2)
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				merged = append(merged, runs[i])
				continue
			}
			lo, mid, hi := runs[i][0], runs[i][1], runs[i+1][1]
			merged = append(merged, [2]int{lo, hi})
			wg.Add(1)
			go func() {
				defer wg.Done()
				mergeRuns(idx, buf, lo, mid, hi, cmp)
			}()
		}
		wg.Wait()
		runs = merged
	}
	return idx
}

// sortIndexStable sorts an increasing run of indices by cmp, ties in
// index order: pdqsort with the index as the last key is a stable sort
// without sort.SliceStable's reflect swapper and O(n log² n) swaps.
func sortIndexStable(idx []int, cmp func(a, b int) int) {
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return a - b
	})
}

// mergeRuns stably merges the sorted runs idx[lo:mid] and idx[mid:hi]
// through buf back into idx[lo:hi]. The left run's element is emitted
// unless the right run's is strictly smaller, preserving original order
// among equals.
func mergeRuns(idx, buf []int, lo, mid, hi int, cmp func(a, b int) int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if cmp(idx[j], idx[i]) < 0 {
			buf[k] = idx[j]
			j++
		} else {
			buf[k] = idx[i]
			i++
		}
		k++
	}
	k += copy(buf[k:], idx[i:mid])
	k += copy(buf[k:], idx[j:hi])
	copy(idx[lo:hi], buf[lo:hi])
}
