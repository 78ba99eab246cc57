package sql

import (
	"context"
	"fmt"
	"strings"

	"madlib/internal/engine"
)

// This file binds a SELECT's FROM clause to a planSource and resolves
// qualified table.column references (and bare references over a join's
// two-table scope) down to plain column names of the planning schema.
// Resolution copies the expression trees it rewrites, so the original
// AST (kept by PREPARE for replanning) is never mutated.

// planSource is where a SELECT's rows come from: a base table, or a
// two-table hash join read from the engine's join cache per execution.
// Plans hold a planSource instead of a *engine.Table so the same
// scan/aggregate machinery runs over both, and so plan-cache validation
// covers every table the plan depends on.
type planSource struct {
	schema engine.Schema

	// Base-table source.
	name  string
	table *engine.Table

	// Join source (nil for base tables).
	join *joinSource

	// nullable marks planning-schema columns that can be NULL at run
	// time: the right side of a LEFT JOIN. matchedIdx is the hidden
	// engine.MatchedCol marker (-1 when absent); visible is the number
	// of leading schema columns SELECT * expands to.
	nullable   []bool
	matchedIdx int
	visible    int

	// virtual marks a system view (madlib_stats_*): acquire materializes
	// a fresh detached snapshot table per execution instead of binding a
	// catalog table, so the plan is never stale and the ordinary scan
	// machinery runs unchanged over live engine statistics.
	virtual bool

	// db is the engine the source was resolved against; compilation uses
	// it to resolve madlib.predict model names at plan time.
	db *engine.DB
	// models are the predict models this plan froze at compile time; the
	// plan is stale as soon as any of them changes in the catalog.
	models []*modelDep
}

// joinSource is the resolved two-table equi-join. Its materialization
// lives in the engine's join cache (engine.DB.Join), shared by every
// plan and session that runs the same join over the same tables.
type joinSource struct {
	leftName, rightName string
	left, right         *engine.Table
	leftKey, rightKey   string // source-table column names
	outer               bool
}

// valid reports whether every table binding of the source is still
// current, so cached plans over joins revalidate both sides.
func (ps *planSource) valid(db *engine.DB) bool {
	for _, dep := range ps.models {
		if !dep.valid(db) {
			return false
		}
	}
	if ps.virtual {
		// A system view's schema is fixed; a catalog table of the same
		// name shadows it once created.
		_, err := db.Table(ps.name)
		return err != nil
	}
	if ps.join != nil {
		lt, errL := db.Table(ps.join.leftName)
		rt, errR := db.Table(ps.join.rightName)
		return errL == nil && errR == nil && lt == ps.join.left && rt == ps.join.right
	}
	t, err := db.Table(ps.name)
	return err == nil && t == ps.table
}

// acquire returns the executable input table: the base table, a fresh
// system-view snapshot, or the join's materialization from the engine's
// join cache (built on a miss).
func (ps *planSource) acquire(s *Session, ctx context.Context) (*engine.Table, error) {
	if ps.virtual {
		return s.buildSystemView(ps.name)
	}
	j := ps.join
	if j == nil {
		return ps.table, nil
	}
	t, hit, err := s.db.Join(ctx, j.left, j.leftKey, j.right, j.rightKey, j.outer)
	if hit {
		s.metrics.joinHits.Inc()
	} else {
		s.metrics.joinMisses.Inc()
	}
	return t, err
}

// newCompileCtx builds a compilation context carrying the source's
// nullability info, so references to the padded side of a LEFT JOIN
// compile to NULL-aware closures.
func (ps *planSource) newCompileCtx() *compileCtx {
	cc := newCompileCtx(ps.schema)
	cc.nullable = ps.nullable
	cc.matchedIdx = ps.matchedIdx
	cc.src = ps
	return cc
}

// scope maps the names visible in a SELECT onto planning-schema columns.
type scope struct {
	// quals: qualifier (table name or alias) → source column → planning name.
	quals map[string]map[string]string
	// qualCols: qualifier → planning names in schema order (for `t.*`).
	qualCols map[string][]string
	// bare: unqualified column → planning name; ambiguous columns map to "".
	bare map[string]string
	// strict rejects unknown bare names at resolution time (join scopes,
	// where the full planning schema is known). Single-table scopes leave
	// bare names for the compiler, preserving its error messages.
	strict bool
}

// resolveColumn maps one (qualifier, name) pair to a planning name.
func (sc *scope) resolveColumn(qual, name string, pos int) (string, error) {
	if qual != "" {
		cols, ok := sc.quals[qual]
		if !ok {
			return "", execErrf("missing FROM-clause entry for table %q", qual)
		}
		resolved, ok := cols[name]
		if !ok {
			return "", fmt.Errorf("%w: %q", engine.ErrNoColumn, qual+"."+name)
		}
		return resolved, nil
	}
	resolved, ok := sc.bare[name]
	if !ok {
		if sc.strict {
			return "", fmt.Errorf("%w: %q", engine.ErrNoColumn, name)
		}
		return name, nil
	}
	if resolved == "" {
		return "", execErrf("column reference %q is ambiguous", name)
	}
	return resolved, nil
}

// resolveExpr returns a copy of e with every column reference resolved.
func (sc *scope) resolveExpr(e Expr) (Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Literal, *Param:
		return e, nil
	case *ColumnRef:
		name, err := sc.resolveColumn(x.Table, x.Name, x.Pos)
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Name: name, Pos: x.Pos}, nil
	case *ArrayLit:
		out := &ArrayLit{Elems: make([]Expr, len(x.Elems)), Pos: x.Pos}
		for i, el := range x.Elems {
			r, err := sc.resolveExpr(el)
			if err != nil {
				return nil, err
			}
			out.Elems[i] = r
		}
		return out, nil
	case *Unary:
		r, err := sc.resolveExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, X: r}, nil
	case *Binary:
		l, err := sc.resolveExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := sc.resolveExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r, Pos: x.Pos}, nil
	case *FuncCall:
		out := &FuncCall{Schema: x.Schema, Name: x.Name, Star: x.Star, Pos: x.Pos}
		out.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			r, err := sc.resolveExpr(a)
			if err != nil {
				return nil, err
			}
			out.Args[i] = r
		}
		if x.Over != nil {
			o := &OverClause{Pos: x.Over.Pos}
			for _, pe := range x.Over.PartitionBy {
				r, err := sc.resolveExpr(pe)
				if err != nil {
					return nil, err
				}
				o.PartitionBy = append(o.PartitionBy, r)
			}
			for _, k := range x.Over.OrderBy {
				r, err := sc.resolveExpr(k.Expr)
				if err != nil {
					return nil, err
				}
				o.OrderBy = append(o.OrderBy, OrderKey{Expr: r, Desc: k.Desc})
			}
			out.Over = o
		}
		return out, nil
	}
	return nil, execErrf("cannot resolve %T", e)
}

// resolveGroupBy maps a possibly qualified GROUP BY entry to a planning
// column name.
func (sc *scope) resolveGroupBy(entry string) (string, error) {
	if i := strings.IndexByte(entry, '.'); i >= 0 {
		return sc.resolveColumn(entry[:i], entry[i+1:], 0)
	}
	return sc.resolveColumn("", entry, 0)
}

// resolveSelect binds st's FROM clause and returns the planSource plus a
// resolved copy of the statement whose column references are plain
// planning-schema names (with `*` expanded for join sources, so the
// hidden matched marker never leaks).
func (s *Session) resolveSelect(st *Select) (*planSource, *Select, error) {
	left, err := s.db.Table(st.From)
	if err != nil {
		// Unknown names fall through to the system views, so a real
		// catalog table always shadows a madlib_stats_* name.
		if schema := systemViewSchema(st.From); schema != nil {
			return s.resolveSystemView(st, schema)
		}
		return nil, nil, err
	}
	ps := &planSource{matchedIdx: -1, db: s.db}
	sc := &scope{
		quals:    map[string]map[string]string{},
		qualCols: map[string][]string{},
		bare:     map[string]string{},
	}

	leftQual := st.From
	if st.FromAlias != "" {
		leftQual = st.FromAlias
	}
	if st.Join == nil {
		ps.name = st.From
		ps.table = left
		ps.schema = left.Schema()
		ps.visible = len(ps.schema)
		ident := make(map[string]string, len(ps.schema))
		for _, c := range ps.schema {
			ident[c.Name] = c.Name
			sc.qualCols[leftQual] = append(sc.qualCols[leftQual], c.Name)
		}
		sc.quals[leftQual] = ident
	} else {
		right, err := s.db.Table(st.Join.Table)
		if err != nil {
			return nil, nil, err
		}
		rightQual := st.Join.Table
		if st.Join.Alias != "" {
			rightQual = st.Join.Alias
		}
		if leftQual == rightQual {
			return nil, nil, execErrf("table name %q specified more than once", leftQual)
		}
		joined, err := engine.JoinSchema(left, right, st.Join.Left)
		if err != nil {
			return nil, nil, err
		}
		ps.schema = joined
		ps.join = &joinSource{
			leftName: st.From, rightName: st.Join.Table,
			left: left, right: right, outer: st.Join.Left,
		}
		ls, rs := left.Schema(), right.Schema()
		ps.visible = len(ls) + len(rs)
		if st.Join.Left {
			ps.matchedIdx = len(joined) - 1
			ps.nullable = make([]bool, len(joined))
			for i := len(ls); i < len(ls)+len(rs); i++ {
				ps.nullable[i] = true
			}
		}
		lm := make(map[string]string, len(ls))
		for i, c := range ls {
			lm[c.Name] = joined[i].Name
			sc.qualCols[leftQual] = append(sc.qualCols[leftQual], joined[i].Name)
		}
		rm := make(map[string]string, len(rs))
		for i, c := range rs {
			rm[c.Name] = joined[len(ls)+i].Name
			sc.qualCols[rightQual] = append(sc.qualCols[rightQual], joined[len(ls)+i].Name)
		}
		sc.quals[leftQual] = lm
		sc.quals[rightQual] = rm
		sc.strict = true
		// Left columns keep their names in the joined schema (only
		// colliding right-side names get the prefix).
		for _, c := range ls {
			sc.bare[c.Name] = c.Name
		}
		for _, c := range rs {
			if _, taken := sc.bare[c.Name]; taken {
				sc.bare[c.Name] = "" // ambiguous
				continue
			}
			sc.bare[c.Name] = rm[c.Name]
		}
		if err := s.resolveJoinKeys(st.Join, sc, ps, ls); err != nil {
			return nil, nil, err
		}
	}

	rst, err := resolveSelectBody(st, sc, ps)
	if err != nil {
		return nil, nil, err
	}
	return ps, rst, nil
}

// resolveSystemView binds a SELECT over a madlib_stats_* system view:
// the scope is built from the view's fixed schema and the planSource is
// marked virtual, so acquire materializes a fresh snapshot per
// execution. System views cannot be joined (stage them with CREATE
// TABLE ... AS if a join is needed).
func (s *Session) resolveSystemView(st *Select, schema engine.Schema) (*planSource, *Select, error) {
	if st.Join != nil {
		return nil, nil, execErrf("system view %q cannot be joined; stage it with CREATE TABLE ... AS first", st.From)
	}
	ps := &planSource{
		matchedIdx: -1,
		name:       st.From,
		schema:     schema,
		visible:    len(schema),
		virtual:    true,
		db:         s.db,
	}
	sc := &scope{
		quals:    map[string]map[string]string{},
		qualCols: map[string][]string{},
		bare:     map[string]string{},
	}
	qual := st.From
	if st.FromAlias != "" {
		qual = st.FromAlias
	}
	ident := make(map[string]string, len(schema))
	for _, c := range schema {
		ident[c.Name] = c.Name
		sc.qualCols[qual] = append(sc.qualCols[qual], c.Name)
	}
	sc.quals[qual] = ident
	rst, err := resolveSelectBody(st, sc, ps)
	if err != nil {
		return nil, nil, err
	}
	return ps, rst, nil
}

// resolveJoinKeys validates the ON condition: an equality of one column
// from each side, with hash-joinable (Int or String) matching kinds.
func (s *Session) resolveJoinKeys(j *JoinClause, sc *scope, ps *planSource, leftSchema engine.Schema) error {
	eq, ok := j.On.(*Binary)
	if !ok || eq.Op != "=" {
		return execErrf("JOIN ... ON requires an equality of one column from each table, got %s", j.On.String())
	}
	lr, lok := eq.L.(*ColumnRef)
	rr, rok := eq.R.(*ColumnRef)
	if !lok || !rok {
		return execErrf("JOIN ... ON requires an equality of one column from each table, got %s", j.On.String())
	}
	lname, err := sc.resolveColumn(lr.Table, lr.Name, lr.Pos)
	if err != nil {
		return err
	}
	rname, err := sc.resolveColumn(rr.Table, rr.Name, rr.Pos)
	if err != nil {
		return err
	}
	li, ri := ps.schema.Index(lname), ps.schema.Index(rname)
	leftSide := func(i int) bool { return i < len(leftSchema) }
	if leftSide(li) == leftSide(ri) {
		return execErrf("JOIN ... ON must compare one column from each table, got %s", j.On.String())
	}
	if leftSide(ri) {
		li, ri = ri, li
		lname, rname = rname, lname
	}
	lk := ps.schema[li].Kind
	rk := ps.schema[ri].Kind
	if lk != rk {
		return execErrf("JOIN keys have mismatched types: %s vs %s", lk, rk)
	}
	if lk != engine.Int && lk != engine.String {
		return execErrf("JOIN keys must be bigint or text columns, got %s", lk)
	}
	// Map planning names back to source-table column names for the join.
	ps.join.leftKey = lname // left columns keep their names
	rs := ps.join.right.Schema()
	ps.join.rightKey = rs[ri-len(leftSchema)].Name
	return nil
}

// resolveSelectBody rewrites the SELECT's clauses against the scope.
func resolveSelectBody(st *Select, sc *scope, ps *planSource) (*Select, error) {
	out := &Select{
		Distinct: st.Distinct,
		From:     st.From, FromAlias: st.FromAlias, Join: st.Join,
		Limit: st.Limit,
	}
	for _, item := range st.Items {
		if item.Star {
			if ps.join == nil {
				out.Items = append(out.Items, item)
				continue
			}
			// Expand * for join sources so the hidden marker stays hidden.
			for i := 0; i < ps.visible; i++ {
				out.Items = append(out.Items, SelectItem{Expr: &ColumnRef{Name: ps.schema[i].Name}})
			}
			continue
		}
		// `t.*` parses as an Expand over ColumnRef{Name: "t"}; when the
		// name is a FROM qualifier, expand to that table's columns.
		if item.Expand {
			if cr, ok := item.Expr.(*ColumnRef); ok && cr.Table == "" {
				if cols, isQual := sc.qualCols[cr.Name]; isQual {
					for _, n := range cols {
						out.Items = append(out.Items, SelectItem{Expr: &ColumnRef{Name: n}})
					}
					continue
				}
			}
		}
		e, err := sc.resolveExpr(item.Expr)
		if err != nil {
			return nil, err
		}
		out.Items = append(out.Items, SelectItem{Expr: e, Expand: item.Expand, Alias: item.Alias})
	}
	var err error
	if out.Where, err = sc.resolveExpr(st.Where); err != nil {
		return nil, err
	}
	for _, g := range st.GroupBy {
		name, err := sc.resolveGroupBy(g)
		if err != nil {
			return nil, err
		}
		out.GroupBy = append(out.GroupBy, name)
	}
	if out.Having, err = sc.resolveExpr(st.Having); err != nil {
		return nil, err
	}
	for _, k := range st.OrderBy {
		// ORDER BY may name output aliases that are not input columns;
		// over a strict (join) scope those must not be rejected. Resolve
		// leniently: a bare name that is an output alias passes through.
		if cr, ok := k.Expr.(*ColumnRef); ok && cr.Table == "" && sc.strict {
			if _, known := sc.bare[cr.Name]; !known {
				if isOutputName(st, cr.Name) {
					out.OrderBy = append(out.OrderBy, k)
					continue
				}
			}
		}
		e, err := sc.resolveExpr(k.Expr)
		if err != nil {
			return nil, err
		}
		out.OrderBy = append(out.OrderBy, OrderKey{Expr: e, Desc: k.Desc})
	}
	return out, nil
}

// isOutputName reports whether name labels one of the SELECT items. A
// table-valued call's output columns are only known when it runs, so any
// name may label one of those.
func isOutputName(st *Select, name string) bool {
	for _, item := range st.Items {
		if item.Star {
			continue
		}
		if fc, ok := item.Expr.(*FuncCall); (ok && isTableValuedCall(fc)) || outputName(item) == name {
			return true
		}
	}
	return false
}
