package sql

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"madlib/internal/core"
	"madlib/internal/engine"
)

// Result is the outcome of one statement: a rowset (possibly empty) plus
// a psql-style command tag.
type Result struct {
	// Cols are the output column names (nil for DDL/DML).
	Cols []string
	// Rows are the output rows in final order.
	Rows [][]any
	// Tag is the command tag, e.g. "CREATE TABLE", "INSERT 0 3",
	// "SELECT 2".
	Tag string
}

// Format renders the rowset as an aligned psql-style table ending with a
// row-count footer. DDL/DML results render as just their tag.
func (r *Result) Format() string {
	if len(r.Cols) == 0 {
		return r.Tag + "\n"
	}
	widths := make([]int, len(r.Cols))
	numeric := make([]bool, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
		numeric[i] = true
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(r.Cols))
		for ci := range r.Cols {
			var v any
			if ci < len(row) {
				v = row[ci]
			}
			s := FormatValue(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
			switch v.(type) {
			case int64, float64:
			default:
				numeric[ci] = false
			}
		}
	}
	var b strings.Builder
	line := func(parts []string, rightAlign func(int) bool) {
		var l strings.Builder
		for i, s := range parts {
			if i > 0 {
				l.WriteString("|")
			}
			l.WriteString(" " + pad(s, widths[i], rightAlign(i)) + " ")
		}
		b.WriteString(strings.TrimRight(l.String(), " "))
		b.WriteString("\n")
	}
	line(r.Cols, func(int) bool { return false })
	for i := range r.Cols {
		if i > 0 {
			b.WriteString("+")
		}
		b.WriteString(strings.Repeat("-", widths[i]+2))
	}
	b.WriteString("\n")
	for _, row := range cells {
		line(row, func(i int) bool { return numeric[i] })
	}
	if len(r.Rows) == 1 {
		b.WriteString("(1 row)\n")
	} else {
		fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	}
	return b.String()
}

func pad(s string, width int, right bool) string {
	if len(s) >= width {
		return s
	}
	fill := strings.Repeat(" ", width-len(s))
	if right {
		return fill + s
	}
	return s + fill
}

// FormatValue renders one SQL value the way the REPL prints it: floats in
// shortest-exact form, vectors in brace notation, booleans as t/f, NULL
// as empty. It is the string form of AppendValue.
func FormatValue(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return string(AppendValue(nil, v))
}

// stmtPlan is a statement lowered against a catalog snapshot: compiled
// closures plus resolved table bindings, executable many times with
// different parameter environments. Plans live in the session plan cache
// and inside prepared statements. A plan owns no storage (a join's
// materialization lives in the engine's join cache), so dropping one
// needs no cleanup.
type stmtPlan interface {
	// exec runs the plan under the given parameter environment.
	exec(s *Session, env *execEnv) (*RowSet, error)
	// valid reports whether the plan's table bindings are still current
	// (the catalog maps each name to the same *engine.Table, and no
	// catalog table shadows a system view it reads), so a cached or
	// prepared plan never executes against a stale schema.
	valid(db *engine.DB) bool
	// columns returns the plan's output column names, nil when the
	// statement produces no row set (INSERT) or when the shape is only
	// known at execution time (table-valued madlib.* calls). The wire
	// server's Describe path renders RowDescription from this.
	columns() []string
	// kinds returns the static kinds of the output columns, parallel to
	// columns(): ckAny where only the values tell, nil when the plan
	// tracks none.
	kinds() []ckind
}

// planStmt lowers a SELECT or INSERT into an executable plan.
func (s *Session) planStmt(st Statement) (stmtPlan, error) {
	switch x := st.(type) {
	case *Select:
		return s.planSelect(x)
	case *Insert:
		return s.planInsert(x)
	}
	return nil, execErrf("statement %T cannot be planned", st)
}

func (s *Session) execCreate(st *CreateTable) (*RowSet, error) {
	schema := make(engine.Schema, len(st.Cols))
	for i, c := range st.Cols {
		schema[i] = engine.Column{Name: c.Name, Kind: c.Kind}
	}
	_, err := s.db.CreateTable(st.Name, schema)
	if err != nil {
		if st.IfNotExists && errors.Is(err, engine.ErrTableExists) {
			return &RowSet{Tag: "CREATE TABLE"}, nil
		}
		return nil, err
	}
	return &RowSet{Tag: "CREATE TABLE"}, nil
}

// execCreateTableAs runs CREATE TABLE name AS SELECT ...: the query
// executes like any SELECT and storage is its sink — the paper's staging
// pipeline (§4.1) in one statement. Each output column is typed from its
// values (from the plan's static kind where it holds none, so an empty
// result still creates its table), the columns are checked and gathered
// into storage lanes (storageColumns), and only then does
// engine.CreateTableFrom fill and register the table: other sessions see
// no table or the whole table, and a NULL or a coercion failure leaves
// nothing to drop.
func (s *Session) execCreateTableAs(st *CreateTableAs) (*RowSet, error) {
	if _, err := s.db.Table(st.Name); err == nil {
		if st.IfNotExists {
			return &RowSet{Tag: "CREATE TABLE"}, nil
		}
		return nil, fmt.Errorf("%w: %q", engine.ErrTableExists, st.Name)
	}
	if n := stmtMaxParam(st.Query); n > 0 {
		return nil, execErrf("query uses parameter $%d; CREATE TABLE AS cannot be parameterized", n)
	}
	pl, err := s.planSelect(st.Query)
	if err != nil {
		return nil, err
	}
	rs, err := pl.exec(s, nil)
	if err != nil {
		return nil, err
	}
	if len(rs.Cols) == 0 {
		return nil, execErrf("CREATE TABLE AS requires a query that returns columns")
	}
	schema := make(engine.Schema, len(rs.Cols))
	for i, name := range rs.Cols {
		if !isValidColumnName(name) {
			return nil, execErrf("CREATE TABLE AS output column %d has no usable name (%q); add an alias (AS name)", i+1, name)
		}
		kind, err := rs.columnKind(i, name, staticKind(pl, i))
		if err != nil {
			return nil, err
		}
		schema[i] = engine.Column{Name: name, Kind: kind}
	}
	data, err := rs.storageColumns(schema, func(i int) string { return fmt.Sprintf("column %q", schema[i].Name) })
	if err != nil {
		return nil, err
	}
	if _, err := s.db.CreateTableFrom(st.Name, schema, rs.n, data); err != nil {
		return nil, err
	}
	return &RowSet{Tag: fmt.Sprintf("SELECT %d", rs.n)}, nil
}

// isValidColumnName reports whether a result column name is a plain
// identifier the grammar can reference later (rejects "?column?" from
// unaliased expressions — the dialect has no quoted identifiers).
func isValidColumnName(name string) bool {
	if name == "" || !isIdentStart(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isIdentPart(name[i]) {
			return false
		}
	}
	return true
}

// staticKind returns the kind of the plan's i-th output column as known
// at plan time: ckAny where only the values tell ($n, NULL-padded LEFT
// JOIN columns, madlib results) and for shapes that track none.
func staticKind(pl stmtPlan, i int) ckind {
	switch p := pl.(type) {
	case *scanPlan:
		return p.items[i].kind
	case *aggPlan:
		return p.outKinds[i]
	}
	return ckAny
}

// columnKind infers output column i's storage kind from its first
// non-NULL value, falling back to the plan's static kind.
func (rs *RowSet) columnKind(i int, name string, static ckind) (engine.Kind, error) {
	for ci := range rs.chunks {
		c := &rs.chunks[ci]
		if c.cols[i].kind.typed() && c.cols[i].valid == nil {
			return engineKindOf(c.cols[i].kind), nil
		}
		for r := 0; r < c.n; r++ {
			v := c.value(r, i)
			if v == nil {
				continue
			}
			if k := valueKind(v); k != ckAny {
				return engineKindOf(k), nil
			}
			return 0, execErrf("cannot store column %q (%T) in a table", name, v)
		}
	}
	if static != ckAny {
		return engineKindOf(static), nil
	}
	return 0, execErrf("cannot infer the type of column %q: the query produced no non-NULL values (CREATE TABLE AS needs at least one row per column)", name)
}

// storageColumns gathers every column of rs into a storage lane of
// schema's kind: the column sink of CREATE TABLE AS and of a table-valued
// call's staged input. A failure names the column as label(i) does.
func (rs *RowSet) storageColumns(schema engine.Schema, label func(i int) string) ([]engine.ColumnData, error) {
	data := make([]engine.ColumnData, len(schema))
	for i, col := range schema {
		var err error
		if data[i], err = rs.storageLane(i, col.Kind); err != nil {
			return nil, fmt.Errorf("sql: %s: %w", label(i), err)
		}
	}
	return data, nil
}

// errNullStored rejects a NULL headed for storage.
var errNullStored = errors.New("NULL values cannot be stored (the engine has no NULL representation)")

// storageLane gathers output column i into one storage lane of the given
// kind: typed lanes of that kind append as they are, anything else
// coerces value by value exactly as INSERT would. A NULL fails the
// statement (the engine has no NULL representation).
func (rs *RowSet) storageLane(i int, kind engine.Kind) (engine.ColumnData, error) {
	var d engine.ColumnData
	for ci := range rs.chunks {
		c := &rs.chunks[ci]
		if c.cols[i].kind.typed() && engineKindOf(c.cols[i].kind) == kind {
			l := &c.cols[i]
			for _, ok := range l.valid {
				if !ok {
					return d, errNullStored
				}
			}
			d.Ints = appendLane(d.Ints, l.ints, rs.n)
			d.Floats = appendLane(d.Floats, l.floats, rs.n)
			d.Strings = appendLane(d.Strings, l.strs, rs.n)
			d.Bools = appendLane(d.Bools, l.bools, rs.n)
			continue
		}
		for r := 0; r < c.n; r++ {
			v := c.value(r, i)
			if v == nil {
				return d, errNullStored
			}
			cv, err := coerceValue(v, kind)
			if err != nil {
				return d, err
			}
			appendStored(&d, cv)
		}
	}
	return d, nil
}

// appendStored appends one coerceValue result to its lane of d.
func appendStored(d *engine.ColumnData, v any) {
	switch x := v.(type) {
	case int64:
		d.Ints = append(d.Ints, x)
	case float64:
		d.Floats = append(d.Floats, x)
	case string:
		d.Strings = append(d.Strings, x)
	case bool:
		d.Bools = append(d.Bools, x)
	case []float64:
		d.Vectors = append(d.Vectors, x)
	}
}

// appendLane appends src to dst, a lane that will hold total values in
// the end and is allocated at that size once.
func appendLane[T any](dst, src []T, total int) []T {
	if dst == nil && len(src) > 0 {
		dst = make([]T, 0, total)
	}
	return append(dst, src...)
}

func (s *Session) execDrop(st *DropTable) (*RowSet, error) {
	if err := s.db.DropTable(st.Name); err != nil {
		if st.IfExists && errors.Is(err, engine.ErrNoTable) {
			return &RowSet{Tag: "DROP TABLE"}, nil
		}
		return nil, err
	}
	return &RowSet{Tag: "DROP TABLE"}, nil
}

// insertPlan is a planned INSERT: the column order is resolved and every
// value compiled once, in schema order; the values evaluate per
// execution (they may hold $n parameters).
type insertPlan struct {
	name  string
	table *engine.Table
	rows  [][]anyFn
}

func (s *Session) planInsert(st *Insert) (stmtPlan, error) {
	t, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	// Map statement column order onto schema order. Every schema column
	// must be covered: the engine has no NULL/default values.
	order := make([]int, len(schema))
	if len(st.Columns) == 0 {
		for i := range schema {
			order[i] = i
		}
	} else {
		if len(st.Columns) != len(schema) {
			return nil, execErrf("INSERT must list all %d columns of %q (engine rows have no defaults)", len(schema), st.Table)
		}
		for i := range order {
			order[i] = -1
		}
		for pos, name := range st.Columns {
			ci := schema.Index(name)
			if ci < 0 {
				return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, name)
			}
			if order[ci] != -1 {
				return nil, execErrf("column %q specified more than once", name)
			}
			order[ci] = pos
		}
	}
	p := &insertPlan{name: st.Table, table: t, rows: make([][]anyFn, len(st.Rows))}
	cc := constCompileCtx()
	for r, row := range st.Rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("%w: got %d values for %d columns", engine.ErrArity, len(row), len(schema))
		}
		p.rows[r] = make([]anyFn, len(schema))
		for ci := range schema {
			c, err := compileExpr(row[order[ci]], cc)
			if err != nil {
				return nil, err
			}
			p.rows[r][ci] = c.a
		}
	}
	return p, nil
}

func (p *insertPlan) valid(db *engine.DB) bool {
	t, err := db.Table(p.name)
	return err == nil && t == p.table
}

func (p *insertPlan) columns() []string { return nil }

func (p *insertPlan) kinds() []ckind { return nil }

// exec evaluates and coerces every row into column lanes, then appends
// them in one engine.Table.AppendColumns: a row that fails leaves the
// table as it was, and a concurrent reader sees none of the statement's
// rows or all of them.
func (p *insertPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	schema := p.table.Schema()
	data := make([]engine.ColumnData, len(schema))
	for _, row := range p.rows {
		for ci, fn := range row {
			v, err := fn(engine.Row{}, env)
			if err != nil {
				return nil, err
			}
			cv, err := coerceValue(v, schema[ci].Kind)
			if err != nil {
				return nil, fmt.Errorf("sql: column %q: %w", schema[ci].Name, err)
			}
			appendStored(&data[ci], cv)
		}
	}
	if err := p.table.AppendColumns(len(p.rows), data); err != nil {
		return nil, err
	}
	return &RowSet{Tag: fmt.Sprintf("INSERT 0 %d", len(p.rows))}, nil
}

// coerceValue converts an evaluated literal to the column kind, applying
// the same numeric widening the engine's Insert accepts plus int64
// narrowing from integral floats.
func coerceValue(v any, kind engine.Kind) (any, error) {
	switch kind {
	case engine.Float:
		if f, ok := toFloat(v); ok {
			return f, nil
		}
	case engine.Vector:
		if vec, ok := v.([]float64); ok {
			return vec, nil
		}
	case engine.Int:
		switch n := v.(type) {
		case int64:
			return n, nil
		case float64:
			if n == float64(int64(n)) {
				return int64(n), nil
			}
		}
	case engine.String:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case engine.Bool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: %s value into %s column", engine.ErrType, valueTypeName(v), kind)
}

// planSelect classifies a SELECT — constant, window, table-valued madlib
// call, aggregate query, or plain scan — and lowers it. The FROM clause
// (base table or join) resolves to a planSource first; qualified column
// references are rewritten to planning-schema names in the same pass.
func (s *Session) planSelect(st *Select) (stmtPlan, error) {
	// FROM-less SELECT: constant expressions, one row.
	if st.From == "" {
		return planConstSelect(st)
	}
	ps, rst, err := s.resolveSelect(st)
	if err != nil {
		return nil, err
	}
	st = rst
	if st.Where != nil && exprHasAgg(st.Where) {
		return nil, execErrf("aggregate functions are not allowed in WHERE")
	}
	if exprHasWindow(st.Where) || exprHasWindow(st.Having) {
		return nil, execErrf("window functions are not allowed in WHERE or HAVING")
	}
	for _, k := range st.OrderBy {
		if exprHasWindow(k.Expr) {
			return nil, execErrf("window functions in ORDER BY are not supported; project them with an alias and sort on that")
		}
	}
	hasWindow := false
	for _, item := range st.Items {
		if !item.Star && exprHasWindow(item.Expr) {
			hasWindow = true
		}
	}
	if hasWindow {
		pl, err := planWindowSelect(st, newLowering(ps, !s.batchEnabled()))
		if err != nil {
			return nil, err
		}
		s.metrics.lanePicked(planLane(pl))
		return pl, nil
	}
	for _, item := range st.Items {
		if item.Star {
			continue
		}
		tv := false
		walkExpr(item.Expr, func(e Expr) {
			if fc, ok := e.(*FuncCall); ok && isTableValuedCall(fc) {
				tv = true
			}
		})
		if tv {
			call, ok := item.Expr.(*FuncCall)
			if !ok || !isTableValuedCall(call) || len(st.Items) != 1 {
				return nil, execErrf("a table-valued madlib function must be the only item in the SELECT list")
			}
			if st.Having != nil {
				return nil, execErrf("HAVING cannot be combined with table-valued madlib functions")
			}
			if st.Distinct {
				return nil, execErrf("SELECT DISTINCT cannot be combined with table-valued madlib functions")
			}
			return planTableValued(st, call, newLowering(ps, !s.batchEnabled()))
		}
		if item.Expand {
			return nil, execErrf("composite expansion (.*) only applies to madlib table-valued functions")
		}
	}
	isAgg := len(st.GroupBy) > 0 || st.Having != nil
	for _, item := range st.Items {
		if !item.Star && exprHasAgg(item.Expr) {
			isAgg = true
		}
	}
	// Every shape runs on its one batch executor; which consumers run as
	// native kernels and which as row closures is decided per consumer
	// during lowering (all closures when the session is in oracle mode).
	lw := newLowering(ps, !s.batchEnabled())
	var pl stmtPlan
	if isAgg {
		pl, err = planAggSelect(st, lw)
	} else {
		pl, err = planScanSelect(st, lw)
	}
	if err != nil {
		return nil, err
	}
	s.metrics.lanePicked(planLane(pl))
	return pl, nil
}

// errDistinctOrder rejects an ORDER BY key of a SELECT DISTINCT that is
// not an output column: sorting deduplicated rows by it would depend on
// which duplicate happened to survive.
var errDistinctOrder = execErrf("for SELECT DISTINCT, ORDER BY expressions must appear in the select list")

// constPlan evaluates a FROM-less SELECT (e.g. SELECT 1+2, SELECT $1+$2).
type constPlan struct {
	cols  []string
	types []ckind
	items []anyFn
	// keys are the ORDER BY keys that are not output columns, evaluated
	// over the output row's slots.
	keys  []anyFn
	order sortSpec
}

func planConstSelect(st *Select) (stmtPlan, error) {
	if st.Where != nil || len(st.GroupBy) > 0 || st.Having != nil {
		return nil, execErrf("WHERE/GROUP BY/HAVING require a FROM clause")
	}
	p := &constPlan{items: make([]anyFn, len(st.Items)), types: itemKinds(st.Items, nil), order: newSortSpec(st)}
	cc := constCompileCtx()
	for i, item := range st.Items {
		if item.Star {
			return nil, execErrf("SELECT * requires a FROM clause")
		}
		if exprHasAgg(item.Expr) {
			return nil, execErrf("aggregate functions require a FROM clause")
		}
		if exprHasWindow(item.Expr) {
			return nil, execErrf("window functions require a FROM clause")
		}
		c, err := compileExpr(item.Expr, cc)
		if err != nil {
			return nil, err
		}
		p.items[i] = c.a
		p.cols = append(p.cols, outputName(item))
	}
	if st.Distinct {
		for _, key := range st.OrderBy {
			if _, ok, err := orderColumn(key.Expr, p.cols, st.Items); err != nil || !ok {
				return nil, cmp.Or(err, errDistinctOrder)
			}
		}
	}
	var err error
	p.keys, err = p.order.compileKeys(st.OrderBy, p.cols, st.Items, outputCompileCtx(nil, p.cols, 0))
	return p, err
}

func (p *constPlan) valid(*engine.DB) bool { return true }

func (p *constPlan) columns() []string { return p.cols }

func (p *constPlan) kinds() []ckind { return p.types }

func (p *constPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	c := boxedChunk(len(p.items)+len(p.keys), 1)
	if err := outputRow(p.items, p.keys, engine.Row{}, env.withSlots(len(p.items)), 0, &c, 0); err != nil {
		return nil, err
	}
	rs := newRowSet(p.cols, p.types, c)
	return rs, p.order.finish(s.db, rs, false)
}

// outputCompileCtx derives the compile context of an output stage from
// base: names label the output columns held in the slots from offset on,
// behind the names base already binds. A nil base has no input row, and
// a name nothing binds does not exist in the result.
func outputCompileCtx(base *compileCtx, names []string, offset int) *compileCtx {
	cc := &compileCtx{matchedIdx: -1, unbound: "column %q does not exist in the result"}
	if base != nil {
		cp := *base
		cc = &cp
	}
	bound := make(map[string]int, len(names)+len(cc.slotNames))
	for i, n := range names {
		bound[n] = offset + i
	}
	for n, i := range cc.slotNames {
		bound[n] = i
	}
	cc.slotNames = bound
	return cc
}

// itemKinds statically types a SELECT list against schema: ckAny where
// inferKind cannot tell ($n, madlib.* calls).
func itemKinds(items []SelectItem, schema engine.Schema) []ckind {
	kinds := make([]ckind, len(items))
	for i, item := range items {
		kinds[i] = ckAny
		if item.Star {
			continue
		}
		if k, err := inferKind(item.Expr, schema); err == nil {
			kinds[i] = kindOf(k)
		}
	}
	return kinds
}

// scanPlan is a planned projection scan: SELECT exprs FROM t [WHERE]
// [ORDER BY] [LIMIT]. It has one executor, gatherBatches: the WHERE
// kernel filters each column batch into a selection vector and every
// item appends the survivors' values to its lane of the morsel's result
// chunk. Each of those consumers is its native batch kernel or, where
// the expression has none, its row closure driven over the selection
// (lowering; such an item fills a boxed lane). The typed chunks go
// through the output tail (sortSpec.finish) as they stand; under ORDER
// BY … LIMIT each morsel first cuts its chunk to its top rows, and when
// the first key is a bare column every batch evaluates it first and
// drops the rows that sort after the cut the morsels share (topBound).
type scanPlan struct {
	src      *planSource
	distinct bool
	cols     []string
	// types are the output columns' static kinds for RowDescription: the
	// item's compiled kind, or what inferKind reads off the schema where
	// the closure is dynamically typed (NULL-padded LEFT JOIN columns).
	types []ckind
	// whereText is the resolved WHERE clause rendered back to text, kept
	// only for EXPLAIN.
	whereText string
	// order.cols[k] is the chunk column of ORDER BY key k: a projected
	// column, or for a key that is an expression over the input row its
	// own item, which follows the SELECT items in emit, in key order.
	order sortSpec

	prog  *batchProg
	pred  bBatchKernel // nil = keep every row
	items []*projItem
	// emit is one item per chunk lane: items, then the expression ORDER
	// BY keys.
	emit []*projItem
	// nativePred and nativeItems count the consumers that lowered to
	// batch kernels (not row closures); EXPLAIN's lane line reports them.
	nativePred  bool
	nativeItems int
	// topKey is the emit lane of the first ORDER BY key when the scan
	// prunes by a topBound, -1 otherwise: under LIMIT, with no DISTINCT,
	// a bare column first key and typed key lanes only, so that no
	// comparison can fail. relSlot and keptSlot are its selection
	// scratch.
	topKey, relSlot, keptSlot int
}

func planScanSelect(st *Select, lw *lowering) (stmtPlan, error) {
	ps := lw.cc.src
	// Expand * into column refs (join sources already expanded during
	// resolution; ps.visible hides the outer-join marker either way).
	var items []SelectItem
	for _, item := range st.Items {
		if item.Star {
			for _, c := range ps.schema[:ps.visible] {
				items = append(items, SelectItem{Expr: &ColumnRef{Name: c.Name}})
			}
			continue
		}
		items = append(items, item)
	}
	p := &scanPlan{src: ps, distinct: st.Distinct, order: newSortSpec(st)}
	p.cols = make([]string, len(items))
	p.items = make([]*projItem, len(items))
	p.types = itemKinds(items, ps.schema)
	for i, item := range items {
		pi, err := lw.item(item.Expr)
		if err != nil {
			return nil, err
		}
		if pi.rowFn == nil {
			p.nativeItems++
		}
		if pi.kind != ckAny {
			p.types[i] = pi.kind
		}
		p.items[i] = pi
		p.cols[i] = outputName(item)
	}
	p.emit = append(p.emit, p.items...)
	for _, key := range st.OrderBy {
		if exprHasAgg(key.Expr) {
			return nil, execErrf("aggregate functions in ORDER BY require GROUP BY or an aggregate SELECT list")
		}
		ord, isOrd, err := orderColumn(key.Expr, p.cols, items)
		if err != nil {
			return nil, err
		}
		if !isOrd && p.distinct {
			return nil, errDistinctOrder
		}
		if isOrd {
			p.order.cols = append(p.order.cols, ord)
			continue
		}
		// Keys lower against the input row, so sorting by non-projected
		// columns works.
		pi, err := lw.item(key.Expr)
		if err != nil {
			return nil, err
		}
		p.order.cols = append(p.order.cols, len(p.emit))
		p.emit = append(p.emit, pi)
	}
	p.topKey = -1
	typed := true
	for _, ci := range p.order.cols {
		typed = typed && p.emit[ci].rowFn == nil
	}
	if typed && p.order.limit >= 0 && len(p.order.cols) > 0 && !p.distinct && p.emit[p.order.cols[0]].safe {
		p.topKey, p.relSlot, p.keptSlot = p.order.cols[0], lw.bc.selSlot(), lw.bc.selSlot()
	}
	var err error
	if p.pred, p.nativePred, err = lw.predicate(st.Where); err != nil {
		return nil, err
	}
	if st.Where != nil {
		p.whereText = st.Where.String()
	}
	p.prog = lw.bc.prog
	return p, nil
}

func (p *scanPlan) valid(db *engine.DB) bool { return p.src.valid(db) }

func (p *scanPlan) columns() []string { return p.cols }

func (p *scanPlan) kinds() []ckind { return p.types }

func (p *scanPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	input, err := p.src.acquire(s, env.context())
	if err != nil {
		return nil, err
	}
	var top *topBound
	if p.topKey >= 0 {
		top = &topBound{k: int(p.order.limit), desc: p.order.desc[0]}
		defer func() { s.metrics.topnPruned(top.pruned.Load()) }()
	}
	emit := func(e *batchEval, b engine.ColBatch, sel selVec, c *Chunk) error {
		return p.emitChunk(e, b, sel, c, top)
	}
	var chunks []Chunk
	err = s.db.ForEachBatchCtx(env.context(), input, func(morsels int, scan func(func(int, engine.ColBatch) error) error) (err error) {
		chunks, err = gatherBatches(env, morsels, scan, p.prog, p.pred, emit)
		return err
	})
	if err != nil {
		return nil, err
	}
	rs := newRowSet(p.cols, p.types, chunks...)
	return rs, p.order.finish(s.db, rs, p.distinct)
}

// emitChunk appends one batch's surviving rows to the morsel's chunk:
// each lane's item evaluates once over the selection. Under a topBound
// the first key evaluates first, and the rows it drops are neither
// evaluated nor gathered by the items that cannot fail; an item that
// can fail still evaluates over every selected row, so the statement
// fails as it would without the cut, and its lane is then cut too.
func (p *scanPlan) emitChunk(e *batchEval, b engine.ColBatch, sel selVec, c *Chunk, top *topBound) error {
	if c.cols == nil {
		c.cols = make([]chunkCol, len(p.emit))
	}
	left := batchesLeft(b)
	kept, rel := sel, []int32(nil)
	if top != nil {
		key, err := p.emit[p.topKey].view(e, b, sel)
		if err != nil {
			return err
		}
		if rel = top.keep(&key, len(sel), e.sel(p.relSlot, len(sel))[:0]); len(rel) < len(sel) {
			key.keepTail(0, rel)
			kept = e.sel(p.keptSlot, len(rel))
			for m, j := range rel {
				kept[m] = sel[j]
			}
		} else {
			rel = nil
		}
		c.cols[p.topKey].appendLane(&key, left)
	}
	for i, pi := range p.emit {
		if top != nil && i == p.topKey {
			continue
		}
		from, in := c.n, kept
		if rel != nil && !pi.safe {
			in = sel
		}
		if err := pi.appendTo(e, b, in, &c.cols[i], left); err != nil {
			return err
		}
		if len(in) > len(kept) {
			c.cols[i].keepTail(from, rel)
		}
	}
	c.n += len(kept)
	if len(p.order.desc) > 0 && left == 1 && !p.distinct {
		// Under ORDER BY … LIMIT the morsel's worker cuts its chunk to
		// its own top rows, a bounded heap over the morsel.
		return p.order.keepTop(c, top)
	}
	return nil
}

// aggPlan is a planned aggregate query, with or without GROUP BY,
// executed as a single two-phase parallel aggregate over the table
// (§3.1.1). Its scan pipeline — WHERE, group keys, one fold per
// aggregate call — is the lane, run by execBatch through the engine's
// batched drivers; each consumer in it is a native batch kernel or its
// row-closure fallback (lowering). The per-group output stage (HAVING,
// the SELECT list, ORDER BY keys) is compiled over one slot vector per
// group: the finalized aggregate values, then the GROUP BY key values,
// then the output items, which ORDER BY keys may name by alias.
type aggPlan struct {
	src      *planSource
	st       *Select
	groupIdx []int
	calls    []*FuncCall // aggregate calls, parallel to lane.specs
	outNames []string
	order    sortSpec
	// outKinds are the output columns' static kinds (CREATE TABLE AS over
	// an empty result, RowDescription).
	outKinds []ckind
	lane     *batchAggLane

	having boolFn // nil without HAVING
	items  []anyFn
	// keys are the ORDER BY keys that are not output columns.
	keys []anyFn
}

func planAggSelect(st *Select, lw *lowering) (stmtPlan, error) {
	ps := lw.cc.src
	schema := ps.schema
	p := &aggPlan{src: ps, st: st, order: newSortSpec(st)}
	// Resolve GROUP BY columns.
	p.groupIdx = make([]int, len(st.GroupBy))
	for i, name := range st.GroupBy {
		ci := schema.Index(name)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, name)
		}
		if ps.nullable != nil && ps.nullable[ci] {
			return nil, execErrf("GROUP BY on column %q from the nullable side of a LEFT JOIN is not supported", name)
		}
		p.groupIdx[i] = ci
	}
	// Collect aggregate calls across SELECT list, HAVING and ORDER BY into
	// slots.
	slotOf := map[*FuncCall]int{}
	var specs []*batchAggSpec
	addSlots := func(e Expr) error {
		if exprHasNestedAgg(e) {
			return execErrf("aggregate calls cannot be nested")
		}
		for _, call := range collectAggCalls(e) {
			if _, done := slotOf[call]; done {
				continue
			}
			spec, err := lw.aggregate(call)
			if err != nil {
				return err
			}
			slotOf[call] = len(specs)
			specs = append(specs, spec)
			p.calls = append(p.calls, call)
		}
		return nil
	}
	for _, item := range st.Items {
		if item.Star {
			return nil, execErrf("SELECT * cannot be combined with aggregate functions")
		}
		if err := addSlots(item.Expr); err != nil {
			return nil, err
		}
	}
	if err := addSlots(st.Having); err != nil {
		return nil, err
	}
	p.outNames = make([]string, len(st.Items))
	p.outKinds = itemKinds(st.Items, schema)
	for i, item := range st.Items {
		p.outNames[i] = outputName(item)
	}
	for _, key := range st.OrderBy {
		_, isOut, err := orderColumn(key.Expr, p.outNames, st.Items)
		if err != nil {
			return nil, err
		}
		if isOut {
			continue
		}
		if st.Distinct {
			return nil, errDistinctOrder
		}
		if err := addSlots(key.Expr); err != nil {
			return nil, err
		}
	}
	var err error
	if p.lane, err = planAggLane(st, lw, specs, p.groupIdx); err != nil {
		return nil, err
	}
	return p, p.compileOutput(slotOf)
}

// compileOutput compiles the per-group output stage against the slot
// layout aggPlan documents.
func (p *aggPlan) compileOutput(slotOf map[*FuncCall]int) error {
	st := p.st
	cc := &compileCtx{matchedIdx: -1, slotCalls: slotOf, slotNames: map[string]int{},
		unbound: "column %q must appear in the GROUP BY clause or be used in an aggregate function"}
	for i, name := range st.GroupBy {
		cc.slotNames[name] = len(p.calls) + i
	}
	if st.Having != nil {
		c, err := compileExpr(st.Having, cc)
		if err != nil {
			return err
		}
		if p.having, err = c.asBool("HAVING"); err != nil {
			return err
		}
	}
	p.items = make([]anyFn, len(st.Items))
	for i, item := range st.Items {
		c, err := compileExpr(item.Expr, cc)
		if err != nil {
			return err
		}
		p.items[i] = c.a
	}
	var err error
	p.keys, err = p.order.compileKeys(st.OrderBy, p.outNames, st.Items, outputCompileCtx(cc, p.outNames, len(p.calls)+len(st.GroupBy)))
	return err
}

func (p *aggPlan) valid(db *engine.DB) bool { return p.src.valid(db) }

func (p *aggPlan) columns() []string { return p.outNames }

func (p *aggPlan) kinds() []ckind { return p.outKinds }

func (p *aggPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	input, err := p.src.acquire(s, env.context())
	if err != nil {
		return nil, err
	}
	slots, n, err := p.execBatch(s, env, input)
	if err != nil {
		return nil, err
	}
	nIn := len(p.calls) + len(p.groupIdx)
	env = env.withSlots(nIn + len(p.items))
	c, kept := boxedChunk(len(p.items)+len(p.keys), n), 0
	for g := range n {
		copy(env.slots, slots[g*nIn:(g+1)*nIn])
		if p.having != nil {
			keep, err := p.having(engine.Row{}, env)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		if err := outputRow(p.items, p.keys, engine.Row{}, env, nIn, &c, kept); err != nil {
			return nil, err
		}
		kept++
	}
	c.truncate(kept)
	rs := newRowSet(p.outNames, p.outKinds, c)
	return rs, p.order.finish(s.db, rs, p.st.Distinct)
}

// floatKeyBits maps a float to grouping-equivalent bits: -0 collapses
// onto +0 and every NaN onto one canonical NaN, so SQL equality and key
// equality agree.
func floatKeyBits(f float64) int64 {
	if f == 0 {
		f = 0
	}
	if f != f {
		return int64(math.Float64bits(math.NaN()))
	}
	return int64(math.Float64bits(f))
}

// Injective key encoding, shared by GROUP BY's composite keys and
// DISTINCT's rows: a kind tag, then a fixed-width or length-prefixed
// payload, floats canonicalized through floatKeyBits.

// appendKeyValue encodes group-key column gi of row r.
func appendKeyValue(buf []byte, schema engine.Schema, r engine.Row, gi int) []byte {
	switch schema[gi].Kind {
	case engine.Int:
		return appendIntKey(buf, r.Int(gi))
	case engine.Float:
		return appendFloatKey(buf, r.Float(gi))
	case engine.Bool:
		return appendBoolKey(buf, r.Bool(gi))
	case engine.String:
		return appendStrKey(buf, r.Str(gi))
	case engine.Vector:
		return appendVecKey(buf, r.Vector(gi))
	}
	return buf
}

// appendValKey encodes one boxed value; nil is SQL NULL.
func appendValKey(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case int64:
		return appendIntKey(buf, x)
	case float64:
		return appendFloatKey(buf, x)
	case string:
		return appendStrKey(buf, x)
	case bool:
		return appendBoolKey(buf, x)
	case []float64:
		return appendVecKey(buf, x)
	}
	// Unknown kinds (not producible by the executor) fall back to their
	// printed form.
	buf = append(buf, 'x')
	return append(buf, fmt.Sprintf("%v", v)...)
}

func appendIntKey(buf []byte, x int64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, 'i'), uint64(x))
}

func appendFloatKey(buf []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, 'f'), uint64(floatKeyBits(x)))
}

func appendStrKey(buf []byte, x string) []byte {
	buf = binary.LittleEndian.AppendUint32(append(buf, 's'), uint32(len(x)))
	return append(buf, x...)
}

func appendBoolKey(buf []byte, x bool) []byte {
	if x {
		return append(buf, 'T')
	}
	return append(buf, 'F')
}

func appendVecKey(buf []byte, x []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(append(buf, 'v'), uint32(len(x)))
	for _, f := range x {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(floatKeyBits(f)))
	}
	return buf
}

// inferKind statically types an expression against a schema, for staging
// computed madlib arguments into a column of their own and for a query's
// output columns (CREATE TABLE AS over an empty aggregate result,
// RowDescription). Built-in aggregate and window calls type by their
// result.
func inferKind(e Expr, schema engine.Schema) (engine.Kind, error) {
	switch x := e.(type) {
	case *Literal:
		switch x.Val.(type) {
		case int64:
			return engine.Int, nil
		case float64:
			return engine.Float, nil
		case string:
			return engine.String, nil
		case bool:
			return engine.Bool, nil
		}
	case *ArrayLit:
		return engine.Vector, nil
	case *ColumnRef:
		ci := schema.Index(x.Name)
		if ci < 0 {
			return 0, fmt.Errorf("%w: %q", engine.ErrNoColumn, x.Name)
		}
		return schema[ci].Kind, nil
	case *Unary:
		if x.Op == "NOT" {
			return engine.Bool, nil
		}
		return inferKind(x.X, schema)
	case *Binary:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return engine.Bool, nil
		}
		lk, err := inferKind(x.L, schema)
		if err != nil {
			return 0, err
		}
		rk, err := inferKind(x.R, schema)
		if err != nil {
			return 0, err
		}
		if lk == engine.Int && rk == engine.Int {
			return engine.Int, nil
		}
		return engine.Float, nil
	case *FuncCall:
		if fn := scalarFuncs[x.Name]; fn != nil && (fn.out != ckAny || len(x.Args) == fn.arity) {
			return fn.inferKind(x, schema)
		}
		switch x.Name {
		case "count", "row_number", "rank":
			return engine.Int, nil
		case "avg", "variance", "stddev":
			return engine.Float, nil
		case "sum", "min", "max":
			if len(x.Args) == 1 {
				return inferKind(x.Args[0], schema)
			}
		}
	}
	return 0, execErrf("cannot infer the type of %s", e.String())
}

// deferredArg is a madlib call argument containing $n placeholders (and
// no column references): a scalar evaluated at EXECUTE time, when the
// parameter values are known.
type deferredArg struct {
	argIdx int
	fn     anyFn
}

// tvPlan is a planned SELECT (madlib.fn(...)).* FROM src [WHERE ...], over
// any planSource but a LEFT JOIN (storage has no NULL for its padding).
// With no WHERE clause and no computed argument the method reads the
// source's table as it stands. Otherwise the input is an ordinary SELECT —
// SELECT *, <computed arguments> AS _argN FROM src WHERE ... — planned
// like any scan (batch kernels, oracle mode, morsel cancellation) and
// landed per execution through the CREATE TABLE AS column sink into a
// detached table: the paper's driver-function staging (§3.1.2), with
// nothing entering the catalog. Scalar arguments may hold $n placeholders
// (madlib.kmeans(coords, $1)); they resolve per execution. Per-row
// computed arguments cannot, because their staged column's type must be
// known at plan time.
type tvPlan struct {
	src       *planSource
	st        *Select
	call      *FuncCall
	fn        core.SQLFunc
	finalArgs []any
	deferred  []deferredArg
	// stage scans the method's input when it must be staged (nil: the
	// source's table is the input). schema is the staged table's: the
	// source's visible columns, then one column per computed argument,
	// whose call argument index computed holds.
	stage    *scanPlan
	schema   engine.Schema
	computed []int
	order    sortSpec
	// keys are the ORDER BY keys, compiled (nil for a position literal).
	// The method's output columns are only known per execution, so which
	// keys are output columns is resolved then (orderColumn), and the
	// column names the other keys read (keyNames, slot i for name i) are
	// bound per row.
	keys     []anyFn
	keyNames []string
}

func planTableValued(st *Select, call *FuncCall, lw *lowering) (stmtPlan, error) {
	if len(st.GroupBy) > 0 {
		return nil, execErrf("GROUP BY cannot be combined with table-valued madlib functions")
	}
	ps := lw.cc.src
	if ps.join != nil && ps.join.outer {
		return nil, execErrf("table-valued madlib functions cannot be combined with LEFT JOIN (storage cannot hold its NULL padding); use an inner JOIN")
	}
	f, _ := core.LookupSQLFunc(call.Name)
	p := &tvPlan{src: ps, st: st, call: call, fn: f, order: newSortSpec(st)}
	p.schema = ps.schema[:ps.visible:ps.visible]
	stage := &Select{Items: []SelectItem{{Star: true}}, Where: st.Where, Limit: -1}
	// Classify arguments: column references and constants pass through,
	// parameter-bearing scalars defer to execution, and any other
	// expression becomes a computed column of the staged input.
	p.finalArgs = make([]any, len(call.Args))
	for i, a := range call.Args {
		if cr, ok := a.(*ColumnRef); ok {
			if p.schema.Index(cr.Name) < 0 {
				return nil, fmt.Errorf("%w: %q", engine.ErrNoColumn, cr.Name)
			}
			p.finalArgs[i] = core.ColumnArg{Name: cr.Name}
			continue
		}
		if v, err := evalConst(a); err == nil {
			p.finalArgs[i] = v
			continue
		}
		if exprHasParam(a) {
			refsColumn := false
			walkExpr(a, func(e Expr) {
				if _, ok := e.(*ColumnRef); ok {
					refsColumn = true
				}
			})
			if refsColumn {
				return nil, execErrf("%s argument %d: parameters cannot be combined with column references in madlib function arguments", call.Name, i+1)
			}
			c, err := compileExpr(a, constCompileCtx())
			if err != nil {
				return nil, err
			}
			p.deferred = append(p.deferred, deferredArg{argIdx: i, fn: c.a})
			continue
		}
		kind, err := inferKind(a, p.schema)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("_arg%d", i+1)
		p.schema = append(p.schema, engine.Column{Name: name, Kind: kind})
		p.computed = append(p.computed, i)
		stage.Items = append(stage.Items, SelectItem{Expr: a, Alias: name})
		p.finalArgs[i] = core.ColumnArg{Name: name}
	}
	if st.Where != nil || len(p.computed) > 0 {
		pl, err := planScanSelect(stage, lw)
		if err != nil {
			return nil, err
		}
		p.stage = pl.(*scanPlan)
	}
	for _, key := range st.OrderBy {
		walkExpr(key.Expr, func(e Expr) {
			if cr, ok := e.(*ColumnRef); ok && !slices.Contains(p.keyNames, cr.Name) {
				p.keyNames = append(p.keyNames, cr.Name)
			}
		})
	}
	cc := outputCompileCtx(nil, p.keyNames, 0)
	p.keys = make([]anyFn, len(st.OrderBy))
	for k, key := range st.OrderBy {
		if _, isOrd, err := ordinal(key.Expr, math.MaxInt32); isOrd || err != nil {
			if err != nil {
				return nil, err
			}
			continue
		}
		c, err := compileExpr(key.Expr, cc)
		if err != nil {
			return nil, err
		}
		p.keys[k] = c.a
	}
	return p, nil
}

func (p *tvPlan) valid(db *engine.DB) bool { return p.src.valid(db) }

// columns is nil for table-valued madlib.* calls: the output shape (names
// and kinds) is produced by the method at execution time.
func (p *tvPlan) columns() []string { return nil }

func (p *tvPlan) kinds() []ckind { return nil }

// input returns the table the method reads: the source's own table, or
// the staged scan's rows gathered column-wise into a detached table.
func (p *tvPlan) input(s *Session, env *execEnv) (*engine.Table, error) {
	if p.stage == nil {
		return p.src.acquire(s, env.context())
	}
	rs, err := p.stage.exec(s, env)
	if err != nil {
		return nil, err
	}
	vis := len(p.schema) - len(p.computed)
	data, err := rs.storageColumns(p.schema, func(i int) string {
		if i < vis {
			return fmt.Sprintf("column %q", p.schema[i].Name)
		}
		return fmt.Sprintf("%s argument %d", p.call.Name, p.computed[i-vis]+1)
	})
	if err != nil {
		return nil, err
	}
	t, err := engine.NewDetachedTable("sql_stage", p.schema, s.db.SegmentCount())
	if err == nil {
		err = t.AppendColumns(rs.n, data)
	}
	return t, err
}

func (p *tvPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	input, err := p.input(s, env)
	if err != nil {
		return nil, err
	}
	args := p.finalArgs
	if len(p.deferred) > 0 {
		args = append([]any(nil), p.finalArgs...)
		for _, d := range p.deferred {
			v, err := d.fn(engine.Row{}, env)
			if err != nil {
				return nil, err
			}
			args[d.argIdx] = v
		}
	}
	outSchema, rows, err := p.fn.Invoke(s.db, input, args)
	if err != nil {
		return nil, fmt.Errorf("sql: madlib.%s: %w", p.call.Name, err)
	}
	w := len(outSchema)
	cols := make([]string, w)
	kinds := make([]ckind, w)
	for i, c := range outSchema {
		cols[i], kinds[i] = c.Name, kindOf(c.Kind)
	}
	order := p.order
	order.cols = nil
	var keys []anyFn
	for k, key := range p.st.OrderBy {
		ci, isOut, err := orderColumn(key.Expr, cols, nil)
		if err != nil {
			return nil, err
		}
		if !isOut {
			ci = w + len(keys)
			keys = append(keys, p.keys[k])
		}
		order.cols = append(order.cols, ci)
	}
	c := boxedChunk(w+len(keys), len(rows))
	for ci := range w {
		lane := c.cols[ci].boxed
		for r, row := range rows {
			lane[r] = row[ci]
		}
	}
	if len(keys) > 0 {
		at := make([]int, len(p.keyNames))
		for i, name := range p.keyNames {
			at[i] = slices.Index(cols, name)
		}
		kenv := env.withSlots(len(p.keyNames))
		for r, row := range rows {
			for i, ci := range at {
				if ci < 0 {
					return nil, execErrf("column %q does not exist in the result", p.keyNames[i])
				}
				kenv.slots[i] = row[ci]
			}
			for i, fn := range keys {
				v, err := fn(engine.Row{}, kenv)
				if err != nil {
					return nil, err
				}
				c.cols[w+i].boxed[r] = v
			}
		}
	}
	rs := newRowSet(cols, kinds, c)
	return rs, order.finish(s.db, rs, false)
}
