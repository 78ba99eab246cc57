package sql

import (
	"fmt"
	"strconv"
)

// The result path. Every statement's product is a RowSet: column names,
// static column kinds, a command tag and a sequence of Chunks. A Chunk is
// a ColBatch-shaped slab of output rows: one typed lane per column, an
// optional validity lane beside it, a boxed lane only for values that
// have no typed lane. A projection scan fills typed lanes per morsel,
// and the window fold typed lanes for its window values and bare
// columns; the values that come from closures (the aggregate output
// stage, the window's other items, table-valued calls, FROM-less
// SELECTs) fill boxed lanes column by column, and EXPLAIN one text lane. Every SELECT shape
// then ends in the same tail over those lanes (sortSpec.finish):
// DISTINCT, ORDER BY, LIMIT. A RowSet has three sinks: RowSet.Result
// boxes it into Result.Rows for the in-process API, the wire server
// renders DataRows cell by cell with Chunk.AppendText, and CREATE TABLE
// AS reads the lanes column-wise (RowSet.storageColumns), as does a
// table-valued call's staged input.

// chunkCol is one output column of a Chunk: the lane matching
// kind holds one value per row; kind ckAny means the boxed lane.
type chunkCol struct {
	kind   ckind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	// valid, when non-nil, parallels the typed lane: false marks SQL NULL
	// (the padded side of a LEFT JOIN); the value lane holds padding
	// there.
	valid []bool
	// boxed holds values with no typed lane: Vector columns, $n-typed
	// expressions, madlib.* results. nil is SQL NULL.
	boxed []any
}

// Chunk is a run of output rows, one lane per column.
type Chunk struct {
	n    int
	cols []chunkCol
}

// boxedChunk returns a chunk of w boxed lanes of n rows, every cell
// NULL until its plan writes it.
func boxedChunk(w, n int) Chunk {
	c := Chunk{n: n, cols: make([]chunkCol, w)}
	for i := range c.cols {
		c.cols[i] = newLane(ckAny, n, false)
	}
	return c
}

// newLane returns a lane of n rows of the kind (int, float or else
// boxed), with a validity lane when nullable.
func newLane(kind ckind, n int, nullable bool) chunkCol {
	l := chunkCol{kind: kind}
	switch kind {
	case ckInt:
		l.ints = make([]int64, n)
	case ckFloat:
		l.floats = make([]float64, n)
	default:
		l.boxed = make([]any, n)
	}
	if nullable {
		l.valid = make([]bool, n)
	}
	return l
}

// Len returns the number of rows in the chunk.
func (c *Chunk) Len() int { return c.n }

// AppendText appends the text rendering of one cell to dst — the bytes
// FormatValue would produce — and reports whether the cell is SQL NULL
// (nothing appended).
func (c *Chunk) AppendText(dst []byte, row, col int) (out []byte, null bool) {
	l := &c.cols[col]
	if l.valid != nil && !l.valid[row] {
		return dst, true
	}
	switch l.kind {
	case ckInt:
		return strconv.AppendInt(dst, l.ints[row], 10), false
	case ckFloat:
		return strconv.AppendFloat(dst, l.floats[row], 'g', -1, 64), false
	case ckStr:
		return append(dst, l.strs[row]...), false
	case ckBool:
		return appendBool(dst, l.bools[row]), false
	}
	v := l.boxed[row]
	if v == nil {
		return dst, true
	}
	return AppendValue(dst, v), false
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 't')
	}
	return append(dst, 'f')
}

// AppendValue appends the text rendering of one SQL value to dst: floats
// in shortest-exact form, vectors in brace notation, booleans as t/f,
// NULL as nothing. FormatValue is its string form.
func AppendValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return dst
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		return append(dst, x...)
	case bool:
		return appendBool(dst, x)
	case []float64:
		dst = append(dst, '{')
		for i, f := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
		return append(dst, '}')
	}
	return fmt.Appendf(dst, "%v", v)
}

// box writes the column into cell col of rows (rows[j] is row j of the
// chunk); NULLs stay nil.
func (l *chunkCol) box(rows [][]any, col int) {
	vl := l.valid
	switch l.kind {
	case ckInt:
		for j, v := range l.ints {
			if vl == nil || vl[j] {
				rows[j][col] = v
			}
		}
	case ckFloat:
		for j, v := range l.floats {
			if vl == nil || vl[j] {
				rows[j][col] = v
			}
		}
	case ckStr:
		for j, v := range l.strs {
			if vl == nil || vl[j] {
				rows[j][col] = v
			}
		}
	case ckBool:
		for j, v := range l.bools {
			if vl == nil || vl[j] {
				rows[j][col] = v
			}
		}
	default:
		for j, v := range l.boxed {
			rows[j][col] = v
		}
	}
}

// appendRows appends rows idx of src, every row when idx is nil, to c,
// over c's columns (src's first ones).
func (c *Chunk) appendRows(src *Chunk, idx []int) {
	for ci := range c.cols {
		c.cols[ci].appendFrom(&src.cols[ci], idx)
	}
	if idx == nil {
		c.n += src.n
	} else {
		c.n += len(idx)
	}
}

// appendFrom appends rows idx of l, every row when idx is nil, to dst,
// which takes l's kind.
func (dst *chunkCol) appendFrom(l *chunkCol, idx []int) {
	dst.kind = l.kind
	switch l.kind {
	case ckInt:
		dst.ints = appendAt(dst.ints, l.ints, idx)
	case ckFloat:
		dst.floats = appendAt(dst.floats, l.floats, idx)
	case ckStr:
		dst.strs = appendAt(dst.strs, l.strs, idx)
	case ckBool:
		dst.bools = appendAt(dst.bools, l.bools, idx)
	default:
		dst.boxed = appendAt(dst.boxed, l.boxed, idx)
	}
	if l.valid != nil {
		dst.valid = appendAt(dst.valid, l.valid, idx)
	}
}

func appendAt[T any](dst, src []T, idx []int) []T {
	if idx == nil {
		return append(dst, src...)
	}
	if dst == nil {
		dst = make([]T, 0, len(idx))
	}
	for _, j := range idx {
		dst = append(dst, src[j])
	}
	return dst
}

// truncate keeps the first n rows of c, in place.
func (c *Chunk) truncate(n int) {
	c.n = n
	for i := range c.cols {
		l := &c.cols[i]
		l.ints, l.floats, l.strs = head(l.ints, n), head(l.floats, n), head(l.strs, n)
		l.bools, l.boxed, l.valid = head(l.bools, n), head(l.boxed, n), head(l.valid, n)
	}
}

func head[T any](s []T, n int) []T { return s[:min(len(s), n)] }

// swap exchanges rows i and j of the lane.
func (l *chunkCol) swap(i, j int) {
	switch l.kind {
	case ckInt:
		l.ints[i], l.ints[j] = l.ints[j], l.ints[i]
	case ckFloat:
		l.floats[i], l.floats[j] = l.floats[j], l.floats[i]
	case ckStr:
		l.strs[i], l.strs[j] = l.strs[j], l.strs[i]
	case ckBool:
		l.bools[i], l.bools[j] = l.bools[j], l.bools[i]
	default:
		l.boxed[i], l.boxed[j] = l.boxed[j], l.boxed[i]
	}
	if l.valid != nil {
		l.valid[i], l.valid[j] = l.valid[j], l.valid[i]
	}
}

// keepTail keeps, of l's rows from from on, those at the positions rel
// (relative to from, ascending), in place.
func (l *chunkCol) keepTail(from int, rel []int32) {
	l.ints, l.floats, l.strs = keepAt(l.ints, from, rel), keepAt(l.floats, from, rel), keepAt(l.strs, from, rel)
	l.bools, l.boxed, l.valid = keepAt(l.bools, from, rel), keepAt(l.boxed, from, rel), keepAt(l.valid, from, rel)
}

func keepAt[T any](s []T, from int, rel []int32) []T {
	if len(s) <= from {
		return s
	}
	for m, j := range rel {
		s[from+m] = s[from+int(j)]
	}
	return s[:from+len(rel)]
}

// appendBoxed boxes the chunk's rows onto rows, column-wise into one
// cell array.
func (c *Chunk) appendBoxed(rows [][]any) [][]any {
	w := len(c.cols)
	cells := make([]any, c.n*w)
	base := len(rows)
	for j := 0; j < c.n; j++ {
		rows = append(rows, cells[j*w:(j+1)*w:(j+1)*w])
	}
	for ci := range c.cols {
		c.cols[ci].box(rows[base:], ci)
	}
	return rows
}

// RowSet is one statement's outcome as the executor produces it: the
// result path's product (see the file comment). DDL/DML statements carry
// only a Tag.
type RowSet struct {
	// Cols are the output column names (nil for DDL/DML).
	Cols []string
	// Tag is the command tag, e.g. "CREATE TABLE", "SELECT 2".
	Tag string

	// kinds are the plan's static column kinds, parallel to Cols; nil or
	// ckAny where only the values tell.
	kinds  []ckind
	chunks []Chunk
	n      int
}

// newRowSet is a SELECT's product as its plan made it, before the
// output tail: the columns, their static kinds and the chunks that hold
// rows.
func newRowSet(cols []string, kinds []ckind, chunks ...Chunk) *RowSet {
	rs := &RowSet{Cols: cols, kinds: kinds}
	for _, c := range chunks {
		if c.n > 0 {
			rs.chunks = append(rs.chunks, c)
			rs.n += c.n
		}
	}
	return rs
}

// setChunk makes c the set's only chunk.
func (rs *RowSet) setChunk(c Chunk) {
	rs.chunks, rs.n = nil, c.n
	if c.n > 0 {
		rs.chunks = []Chunk{c}
	}
}

// NumRows returns the number of rows in the set.
func (rs *RowSet) NumRows() int { return rs.n }

// Chunks returns the rows in output order. Callers must not retain a
// chunk beyond the RowSet.
func (rs *RowSet) Chunks() []Chunk { return rs.chunks }

// limit keeps the first n rows, cutting the chunks in place.
func (rs *RowSet) limit(n int) {
	if n >= rs.n {
		return
	}
	rs.n = n
	for i := range rs.chunks {
		if n == 0 {
			rs.chunks = rs.chunks[:i]
			return
		}
		c := &rs.chunks[i]
		if n < c.n {
			c.truncate(n)
		}
		n -= c.n
	}
}

// ColumnTypes names each output column's SQL type ("bigint", "double
// precision", "text", "boolean", "double precision[]") from the plan's
// static kinds, so an empty result is typed like a full one. A column
// whose kind only its values tell ($n expressions, madlib.* calls inside
// an expression) is typed by the first row when there is one, and
// "unknown" otherwise.
func (rs *RowSet) ColumnTypes() []string {
	types := make([]string, len(rs.Cols))
	for i := range types {
		k := ckAny
		if i < len(rs.kinds) {
			k = rs.kinds[i]
		}
		if k == ckAny && rs.n > 0 {
			k = valueKind(rs.chunks[0].value(0, i))
		}
		types[i] = k.String()
	}
	return types
}

// value boxes one cell; nil is SQL NULL.
func (c *Chunk) value(row, col int) any { return c.cols[col].value(row) }

// value boxes the lane's cell at row; nil is SQL NULL.
func (l *chunkCol) value(row int) any {
	if l.valid != nil && !l.valid[row] {
		return nil
	}
	switch l.kind {
	case ckInt:
		return l.ints[row]
	case ckFloat:
		return l.floats[row]
	case ckStr:
		return l.strs[row]
	case ckBool:
		return l.bools[row]
	}
	return l.boxed[row]
}

// typed reports whether values of the kind travel in a typed lane (not
// the boxed one).
func (k ckind) typed() bool { return k == ckInt || k == ckFloat || k == ckStr || k == ckBool }

// valueKind is the kind of a boxed value, ckAny for NULL and for values
// with no SQL type.
func valueKind(v any) ckind {
	switch v.(type) {
	case int64:
		return ckInt
	case float64:
		return ckFloat
	case string:
		return ckStr
	case bool:
		return ckBool
	case []float64:
		return ckVec
	}
	return ckAny
}

// Result boxes the set into the in-process API's Result: the one place
// chunks become [][]any.
func (rs *RowSet) Result() *Result {
	r := &Result{Cols: rs.Cols, Tag: rs.Tag}
	if len(rs.chunks) > 0 {
		r.Rows = make([][]any, 0, rs.n)
		for i := range rs.chunks {
			r.Rows = rs.chunks[i].appendBoxed(r.Rows)
		}
	}
	return r
}
