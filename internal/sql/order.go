package sql

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"madlib/internal/engine"
)

// Sorting. ORDER BY compares rows where they lie, in a Chunk's lanes:
// each key is bound once to its lane and compares by the lane's kind — a
// typed compare for int, float, text and bool lanes with NULL placement
// read off the validity lane, compareOrderKeys only for a boxed lane —
// and ties break on the row's position, which reproduces a stable sort. A
// projection scan sorts its gathered typed chunks and gathers its output
// chunk through the permutation, so the result stays typed
// (sortSpec.sortChunks); a window sorts its gathered key chunks the
// same way into partition and window order, and finds partition starts
// and rank() peers with the same comparator (windowPlan.fold); the plans
// that box their rows first sort one chunk of boxed key lanes
// (finishSelect). Under LIMIT k a bounded heap keeps each chunk's k best
// rows, and only those candidates meet in the final sort.

// sortSpec is a SELECT's ORDER BY … LIMIT: each key's direction and
// text (for EXPLAIN), and the row limit, -1 for none.
type sortSpec struct {
	desc  []bool
	text  []string
	limit int64
}

func newSortSpec(st *Select) sortSpec {
	o := sortSpec{limit: st.Limit}
	for _, k := range st.OrderBy {
		t := k.Expr.String()
		if k.Desc {
			t += " DESC"
		}
		o.desc, o.text = append(o.desc, k.Desc), append(o.text, t)
	}
	return o
}

// explain is the plan's EXPLAIN line for the sort, none without ORDER
// BY.
func (o sortSpec) explain() []string {
	if len(o.desc) == 0 {
		return nil
	}
	how := "full"
	if o.limit >= 0 {
		how = fmt.Sprintf("top-N heap (limit %d)", o.limit)
	}
	return []string{"  sort: " + how + " by " + strings.Join(o.text, ", ")}
}

// perm returns the positions of c's rows in order, cut to the limit.
func (o sortSpec) perm(db *engine.DB, c *Chunk, cols []int) ([]int, error) {
	ord := o.rowOrder(c, cols)
	var idx []int
	if o.limit >= 0 && o.limit < int64(c.n) {
		idx = ord.topK(c.n, int(o.limit))
		slices.SortFunc(idx, ord.total)
	} else {
		idx = db.SortFunc(c.n, ord.compare)
	}
	return idx, ord.failed()
}

// keepTop cuts c, a chunk of more than limit rows, to its first limit
// rows, kept in row order so that a later sort of the candidates still
// breaks ties by position.
func (o sortSpec) keepTop(c *Chunk, cols []int) error {
	if o.limit < 0 || int64(c.n) <= o.limit {
		return nil
	}
	ord := o.rowOrder(c, cols)
	top := ord.topK(c.n, int(o.limit))
	slices.Sort(top)
	kept := Chunk{cols: make([]chunkCol, len(c.cols))}
	kept.appendRows(c, top)
	*c = kept
	return ord.failed()
}

// rowOrder builds the comparator over c's key lanes: key k is column
// cols[k] (column k when cols is nil).
func (o sortSpec) rowOrder(c *Chunk, cols []int) *rowOrder {
	ord := &rowOrder{keys: make([]orderKey, len(o.desc))}
	for k, desc := range o.desc {
		ci := k
		if cols != nil {
			ci = cols[k]
		}
		ord.keys[k] = orderKey{&c.cols[ci], desc}
	}
	return ord
}

// sortChunks orders the rows of chunks, read in sequence, by the key
// columns cols and returns the first limit of them, with the first w
// columns, as one chunk. Chunks a morsel has already cut to its top rows
// (keepTop) make the final sort small; perm finds the exact answer
// either way.
func (o sortSpec) sortChunks(db *engine.DB, chunks []Chunk, cols []int, w int) (Chunk, error) {
	if len(chunks) == 0 {
		return Chunk{}, nil
	}
	all := concatChunks(chunks)
	perm, err := o.perm(db, &all, cols)
	if err != nil {
		return Chunk{}, err
	}
	out := Chunk{cols: make([]chunkCol, w)}
	out.appendRows(&all, perm)
	return out, nil
}

// concatChunks reads chunks, columnar, of one layout and at least one,
// in sequence as one chunk.
func concatChunks(chunks []Chunk) Chunk {
	if len(chunks) == 1 {
		return chunks[0]
	}
	all := Chunk{cols: make([]chunkCol, len(chunks[0].cols))}
	for i := range chunks {
		all.appendRows(&chunks[i], nil)
	}
	return all
}

// rowOrder compares two rows of one chunk by their ORDER BY keys.
type rowOrder struct {
	keys []orderKey
	// err is the first boxed comparison's error; once it is set every
	// compare short-circuits, since the order is discarded anyway.
	err atomic.Pointer[error]
}

// orderKey is one ORDER BY key: the lane holding it and its direction.
type orderKey struct {
	l    *chunkCol
	desc bool
}

// compare orders rows i and j by each key's lane in turn: a typed
// compare, or compareOrderKeys over a boxed lane. NULL sorts as the
// largest value, so NULLS LAST ascending and FIRST under DESC.
func (o *rowOrder) compare(i, j int) int {
	for _, k := range o.keys {
		a, b, l := i, j, k.l
		if k.desc {
			a, b = j, i
		}
		var c int
		switch {
		case l.valid != nil && !(l.valid[a] && l.valid[b]):
			c = compareBools(!l.valid[a], !l.valid[b])
		case l.kind == ckInt:
			c = cmp.Compare(l.ints[a], l.ints[b])
		case l.kind == ckFloat:
			c = compareFloats(l.floats[a], l.floats[b])
		case l.kind == ckStr:
			c = strings.Compare(l.strs[a], l.strs[b])
		case l.kind == ckBool:
			c = compareBools(l.bools[a], l.bools[b])
		default:
			c = o.compareBoxed(l.boxed[a], l.boxed[b])
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func (o *rowOrder) compareBoxed(a, b any) int {
	if o.err.Load() != nil {
		return 0
	}
	c, err := compareOrderKeys(a, b)
	if err != nil {
		first := err // declared here, so only a failing compare allocates
		o.err.CompareAndSwap(nil, &first)
	}
	return c
}

func (o *rowOrder) failed() error {
	if err := o.err.Load(); err != nil {
		return *err
	}
	return nil
}

// total is the order the sort produces: keys, then position.
func (o *rowOrder) total(i, j int) int {
	if c := o.compare(i, j); c != 0 {
		return c
	}
	return i - j
}

func (o *rowOrder) less(i, j int) bool { return o.total(i, j) < 0 }

// topK returns the k first of rows [0, n), unordered. A bounded max-heap
// holds the best k seen so far with the worst of them at its root, so
// most rows cost one comparison against the root.
func (o *rowOrder) topK(n, k int) []int {
	// h is never nil: appendRows reads a nil index as every row.
	h := make([]int, 0, k)
	for i := 0; k > 0 && i < n; i++ {
		c := len(h)
		if c < k {
			h = append(h, i)
		} else {
			if !o.less(i, h[0]) {
				continue
			}
			// Replace the root: walk its hole down along the larger
			// children to a leaf, then sift i up from there.
			c = 0
			for ch := 1; ch < k; ch = 2*c + 1 {
				if ch+1 < k && o.less(h[ch], h[ch+1]) {
					ch++
				}
				h[c], c = h[ch], ch
			}
			h[c] = i
		}
		for ; c > 0 && o.less(h[(c-1)/2], h[c]); c = (c - 1) / 2 {
			h[c], h[(c-1)/2] = h[(c-1)/2], h[c]
		}
	}
	return h
}

// compareOrderKeys orders two boxed ORDER BY key values the Postgres
// way: NULL sorts as the largest value, a NaN above every other number
// and equal to itself, also as a vector element (vectors compare
// element-wise, then by length). Other pairs defer to compareValues.
func compareOrderKeys(a, b any) (int, error) {
	if a == nil || b == nil {
		return compareBools(a == nil, b == nil), nil
	}
	if af, ok := toFloat(a); ok {
		if bf, ok := toFloat(b); ok && (af != af || bf != bf) {
			return compareFloats(af, bf), nil
		}
	}
	if av, ok := a.([]float64); ok {
		if bv, ok := b.([]float64); ok {
			return slices.CompareFunc(av, bv, compareFloats), nil
		}
	}
	return compareValues(a, b)
}

// compareFloats orders floats with NaN above every other value and equal
// to itself; -0 equals 0.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return compareBools(a != a, b != b)
}

// compareBools orders false before true.
func compareBools(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

// ascending returns the positions of rows ordered by their first nk
// cells, ascending, ties in position order: the default order of
// groups.
func ascending(db *engine.DB, rows [][]any, nk int) ([]int, error) {
	kc := boxedKeys(rows, 0, nk)
	return sortSpec{desc: make([]bool, nk), limit: -1}.perm(db, &kc, nil)
}

// boxedKeys gathers cells from, from+1, … from+nk-1 of every row into
// one chunk of nk boxed key lanes.
func boxedKeys(rows [][]any, from, nk int) Chunk {
	c := Chunk{n: len(rows), cols: make([]chunkCol, nk)}
	for k := range c.cols {
		lane := make([]any, len(rows))
		for i, row := range rows {
			lane[i] = row[from+k]
		}
		c.cols[k] = chunkCol{kind: ckAny, boxed: lane}
	}
	return c
}
