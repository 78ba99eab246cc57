package sql

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"madlib/internal/engine"
)

// The output tail. Every SELECT shape ends in one function,
// sortSpec.finish, over the chunks its plan made: the output lanes, then
// one lane per ORDER BY key that is not an output column (orderColumn
// decides which keys are). DISTINCT keeps the first occurrence of each
// distinct output row, through the keyIndex GROUP BY uses; ORDER BY then
// sorts, or LIMIT alone cuts the chunks.
//
// Sorting compares rows where they lie, in a Chunk's lanes: each key is
// bound once to its lane and compares by the lane's kind — a typed
// compare for int, float, text and bool lanes with NULL placement read
// off the validity lane, compareOrderKeys only for a boxed lane — and
// ties break on the row's position, which reproduces a stable sort. The
// sorted chunks are gathered into one output chunk through the
// permutation (sortSpec.sortChunks), so typed lanes stay typed. A window
// sorts its gathered key chunks the same way into partition and window
// order, and finds partition starts and rank() peers with the same
// comparator (windowPlan.fold); the grouped aggregate sorts its typed
// group keys into its default order. Under LIMIT k a bounded heap keeps
// each scan morsel's k best rows, and only those candidates meet in the
// final sort. The morsels also share a cut (topBound): a heap of the k
// best first-key values of the rows finished morsels kept. When the
// first key is a bare column with a typed lane, every batch evaluates it
// first and drops the rows that sort strictly after the cut before
// anything else of them is evaluated or gathered; ties with the cut
// survive, so the stable tie order is kept.

// sortSpec is a SELECT's ORDER BY … LIMIT: each key's direction, its
// text (for EXPLAIN) and its chunk column, and the row limit, -1 for
// none.
type sortSpec struct {
	desc []bool
	text []string
	// cols[k] is the chunk column key k compares; nil means column k.
	cols  []int
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

// finish is the output tail of every SELECT shape, over rs as its plan
// made it (see the file comment): DISTINCT over the len(rs.Cols) output
// lanes, then ORDER BY through the key lanes and the limit, or else the
// limit alone. It sets the command tag.
func (o sortSpec) finish(db *engine.DB, rs *RowSet, distinct bool) error {
	w := len(rs.Cols)
	if distinct && rs.n > 0 {
		rs.setChunk(distinctRows(concatChunks(rs.chunks), w))
	}
	switch {
	case len(o.desc) > 0:
		c, err := o.sortChunks(db, rs.chunks, w)
		if err != nil {
			return err
		}
		rs.setChunk(c)
	case o.limit >= 0:
		rs.limit(int(o.limit))
	}
	rs.Tag = fmt.Sprintf("SELECT %d", rs.n)
	return nil
}

// distinctRows returns the first occurrence of each distinct row of c,
// over its first w columns, in order. A row's key is its cells encoded
// injectively (chunkCol.appendKey); a key the index has not seen gets a
// fresh id, and its row is kept.
func distinctRows(c Chunk, w int) Chunk {
	var ix keyIndex[string]
	ix.rehash(64)
	m := min(c.n, engine.BatchSize)
	keys, hs, ids, ends := make([]string, m), make([]uint64, m), make([]int32, m), make([]int, m)
	var kept []int
	var buf []byte
	for lo := 0; lo < c.n; lo += m {
		hi := min(lo+m, c.n)
		buf = buf[:0]
		for j := lo; j < hi; j++ {
			for ci := range w {
				buf = c.cols[ci].appendKey(buf, j)
			}
			ends[j-lo] = len(buf)
		}
		// One string holds the block's keys; the index keeps slices of it.
		block, from := string(buf), 0
		for j := range hi - lo {
			keys[j], from = block[from:ends[j]], ends[j]
			hs[j] = maphash.String(strSeed, keys[j])
		}
		ix.resolve(keys[:hi-lo], hs[:hi-lo], ids[:hi-lo], func(j int) { kept = append(kept, lo+j) })
	}
	out := Chunk{cols: make([]chunkCol, w)}
	out.appendRows(&c, kept)
	return out
}

// appendKey appends row j's cell to buf, encoded as appendValKey encodes
// its boxed value.
func (l *chunkCol) appendKey(buf []byte, j int) []byte {
	if l.valid != nil && !l.valid[j] {
		return appendValKey(buf, nil)
	}
	switch l.kind {
	case ckInt:
		return appendIntKey(buf, l.ints[j])
	case ckFloat:
		return appendFloatKey(buf, l.floats[j])
	case ckStr:
		return appendStrKey(buf, l.strs[j])
	case ckBool:
		return appendBoolKey(buf, l.bools[j])
	}
	return appendValKey(buf, l.boxed[j])
}

// orderColumn resolves an ORDER BY key to the output column it sorts
// by, as Postgres does: a position literal selects its column (out of
// range it is an error, not a constant key); a bare name selects the
// output column it labels, ahead of any input column of that name, and
// is an error when it labels two differently defined columns; an
// expression written like an item selects that item. ok is false for
// any other key, which sorts by its own value. items are the output
// expressions, nil where only the names are known (a table-valued
// call's columns).
func orderColumn(key Expr, names []string, items []SelectItem) (col int, ok bool, err error) {
	if col, ok, err = ordinal(key, len(names)); ok {
		return col, ok, err
	}
	if cr, isRef := key.(*ColumnRef); isRef && cr.Table == "" {
		col = -1
		for i, n := range names {
			switch {
			case n != cr.Name:
			case col < 0:
				col = i
			case items == nil || items[i].Expr.String() != items[col].Expr.String():
				return 0, false, execErrf("ORDER BY %q is ambiguous", cr.Name)
			}
		}
		if col >= 0 {
			return col, true, nil
		}
	}
	ks := key.String()
	for i, item := range items {
		if item.Expr.String() == ks {
			return i, true, nil
		}
	}
	return 0, false, nil
}

// ordinal recognizes ORDER BY position literals. A bare integer literal
// is an ordinal: in range it selects output column v-1, out of range it
// is an error (not a constant sort key).
func ordinal(e Expr, n int) (idx int, isOrdinal bool, err error) {
	l, ok := e.(*Literal)
	if !ok {
		return 0, false, nil
	}
	v, ok := l.Val.(int64)
	if !ok {
		return 0, false, nil
	}
	if v < 1 || int(v) > n {
		return 0, true, execErrf("ORDER BY position %d is not in select list", v)
	}
	return int(v) - 1, true, nil
}

// compileKeys resolves the ORDER BY keys of an output stage with the
// given output columns into o.cols: an output column where orderColumn
// finds one, and otherwise a lane of its own behind the outputs, whose
// expression compiles against cc into the returned closures, in key
// order.
func (o *sortSpec) compileKeys(keys []OrderKey, names []string, items []SelectItem, cc *compileCtx) ([]anyFn, error) {
	var fns []anyFn
	for _, key := range keys {
		ci, ok, err := orderColumn(key.Expr, names, items)
		if err != nil {
			return nil, err
		}
		if !ok {
			c, err := compileExpr(key.Expr, cc)
			if err != nil {
				return nil, err
			}
			ci = len(names) + len(fns)
			fns = append(fns, c.a)
		}
		o.cols = append(o.cols, ci)
	}
	return fns, nil
}

// outputRow evaluates one output row of a closure-fed plan into row k of
// c, a chunk of boxed lanes: items into the output lanes, each value also
// into env's slot from+i, where ORDER BY keys may read it by alias; then
// keys, the ORDER BY keys that are not output columns, into the lanes
// behind them.
func outputRow(items, keys []anyFn, r engine.Row, env *execEnv, from int, c *Chunk, k int) error {
	for i, fn := range items {
		v, err := fn(r, env)
		if err != nil {
			return err
		}
		c.cols[i].boxed[k], env.slots[from+i] = v, v
	}
	for i, fn := range keys {
		v, err := fn(r, env)
		if err != nil {
			return err
		}
		c.cols[len(items)+i].boxed[k] = v
	}
	return nil
}

// perm returns the positions of c's rows in order, cut to the limit.
func (o sortSpec) perm(db *engine.DB, c *Chunk) ([]int, error) {
	ord := o.rowOrder(c)
	var idx []int
	if o.limit >= 0 && o.limit < int64(c.n) {
		idx = ord.topK(c.n, int(o.limit))
		slices.SortFunc(idx, ord.total)
	} else {
		idx = db.SortFunc(c.n, ord.compare)
	}
	return idx, ord.failed()
}

// keepTop cuts c, a morsel's chunk, to its first limit rows, kept in
// row order so that a later sort of the candidates still breaks ties by
// position, and offers the first keys of the rows it keeps to top, the
// cut the scan's morsels share, when there is one. It runs once per
// morsel, after its last batch, so no row is offered twice.
func (o sortSpec) keepTop(c *Chunk, top *topBound) error {
	if o.limit < 0 {
		return nil
	}
	if int64(c.n) > o.limit {
		ord := o.rowOrder(c)
		h := ord.topK(c.n, int(o.limit))
		if err := ord.failed(); err != nil {
			return err
		}
		slices.Sort(h)
		kept := Chunk{cols: make([]chunkCol, len(c.cols))}
		kept.appendRows(c, h)
		*c = kept
	}
	if top != nil && c.n > 0 {
		top.offer(&c.cols[o.col(0)], c.n)
	}
	return nil
}

// topBound is the cut the morsels of one ORDER BY … LIMIT k scan share.
// A max-heap holds the k best first-key values of the rows that finished
// morsels kept, each value another row's; once it is full, its root,
// the k-th, is the cut. k rows sort at or before it, so a row whose
// first key sorts strictly after it cannot be among the first k and is
// dropped before the scan evaluates or gathers anything else of it.
// Rows that tie with the cut survive, and the exact order decides them.
// The cut only ever improves.
type topBound struct {
	k      int
	desc   bool
	pruned atomic.Int64             // rows the cut dropped
	cut    atomic.Pointer[chunkCol] // the root's value, one row; nil until the heap is full

	mu   sync.Mutex
	heap chunkCol // rows [0, size) are the heap, the worst at row 0
	size int
}

// offer adds the n values of l, the first key lane of a morsel's kept
// rows, to the heap, and publishes its root once it is full.
func (t *topBound) offer(l *chunkCol, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := &t.heap
	ord := &rowOrder{keys: []orderKey{{h, t.desc}}}
	h.appendFrom(l, nil) // the candidates, rows size..size+n
	for j, end := t.size, t.size+n; j < end; j++ {
		if t.size < t.k {
			// Fill: the candidate is row size already; sift it up.
			for c := t.size; c > 0 && ord.compare((c-1)/2, c) < 0; c = (c - 1) / 2 {
				h.swap(c, (c-1)/2)
			}
			t.size++
			continue
		}
		if ord.compare(j, 0) >= 0 {
			continue
		}
		// Replace the root and sift it down.
		h.swap(0, j)
		for c, ch := 0, 1; ch < t.k; c, ch = ch, 2*ch+1 {
			if ch+1 < t.k && ord.compare(ch, ch+1) < 0 {
				ch++
			}
			if ord.compare(c, ch) >= 0 {
				break
			}
			h.swap(c, ch)
		}
	}
	h.keepTail(t.size, nil) // drop the candidates' rows
	if t.size == t.k {
		root := &chunkCol{}
		root.appendFrom(h, []int{0})
		t.cut.Store(root)
	}
}

// keep appends to rel the positions of the n rows of l whose key does
// not sort strictly after the cut: every row while there is no cut, or
// when l is a bool lane.
func (t *topBound) keep(l *chunkCol, n int, rel []int32) []int32 {
	cut := t.cut.Load()
	if cut == nil || l.kind == ckBool {
		for j := range n {
			rel = append(rel, int32(j))
		}
		return rel
	}
	xNull := cut.valid != nil && !cut.valid[0]
	switch l.kind {
	case ckInt:
		rel = keepNotAfter(l.ints, l.valid, cut.ints[0], xNull, t.desc, rel)
	case ckFloat:
		rel = keepNotAfter(l.floats, l.valid, cut.floats[0], xNull, t.desc, rel)
	case ckStr:
		rel = keepNotAfter(l.strs, l.valid, cut.strs[0], xNull, t.desc, rel)
	}
	if dropped := n - len(rel); dropped > 0 {
		t.pruned.Add(int64(dropped))
	}
	return rel
}

// keepNotAfter appends to rel the positions of vals whose value, NULL
// where valid says so, does not sort strictly after x, NULL when xNull,
// under the direction, as rowOrder.compare orders them.
func keepNotAfter[T cmp.Ordered](vals []T, valid []bool, x T, xNull, desc bool, rel []int32) []int32 {
	if valid == nil && !xNull && x == x {
		// Neither side is NULL and x is no NaN. A NaN value sorts after
		// x ascending and before it descending, which is where both
		// comparisons, false for a NaN, put it.
		m := len(rel)
		rel = slices.Grow(rel, len(vals))[:m+len(vals)]
		if desc {
			for j, v := range vals {
				rel[m] = int32(j)
				if !(v < x) {
					m++
				}
			}
		} else {
			for j, v := range vals {
				rel[m] = int32(j)
				if v <= x {
					m++
				}
			}
		}
		return rel[:m]
	}
	for j, v := range vals {
		var c int
		switch {
		case valid != nil && !valid[j]:
			c = compareBools(true, xNull)
		case xNull:
			c = -1
		case v < x:
			c = -1
		case v > x:
			c = 1
		case v == x:
			c = 0
		default: // a NaN, above every other value (compareFloats)
			c = compareBools(v != v, x != x)
		}
		if desc {
			c = -c
		}
		if c <= 0 {
			rel = append(rel, int32(j))
		}
	}
	return rel
}

// rowOrder builds the comparator over c's key lanes.
func (o sortSpec) rowOrder(c *Chunk) *rowOrder {
	ord := &rowOrder{keys: make([]orderKey, len(o.desc))}
	for k, desc := range o.desc {
		ord.keys[k] = orderKey{&c.cols[o.col(k)], desc}
	}
	return ord
}

// col is the chunk column of key k.
func (o sortSpec) col(k int) int {
	if o.cols == nil {
		return k
	}
	return o.cols[k]
}

// sortChunks orders the rows of chunks, read in sequence, by the key
// columns and returns the first limit of them, with the first w
// columns, as one chunk. Chunks a morsel has already cut to its top rows
// (keepTop) make the final sort small; perm finds the exact answer
// either way.
func (o sortSpec) sortChunks(db *engine.DB, chunks []Chunk, w int) (Chunk, error) {
	if len(chunks) == 0 {
		return Chunk{}, nil
	}
	all := concatChunks(chunks)
	perm, err := o.perm(db, &all)
	if err != nil {
		return Chunk{}, err
	}
	out := Chunk{cols: make([]chunkCol, w)}
	out.appendRows(&all, perm)
	return out, nil
}

// concatChunks reads chunks, at least one, in sequence as one chunk.
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
// largest value, so NULLS LAST under ASC and FIRST under DESC.
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
