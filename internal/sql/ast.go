package sql

import (
	"fmt"
	"strings"

	"madlib/internal/engine"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL-ish text (for traces and
	// error messages, not guaranteed round-trippable).
	String() string
}

// ColumnDef is one column of a CREATE TABLE statement.
type ColumnDef struct {
	Name string
	Kind engine.Kind
}

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name        string
	Cols        []ColumnDef
	IfNotExists bool
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", s.Name, strings.Join(parts, ", "))
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// Insert is INSERT INTO name [(cols)] VALUES (...), (...).
type Insert struct {
	Table string
	// Columns is the optional explicit column list; empty means schema
	// order.
	Columns []string
	Rows    [][]Expr
}

func (*Insert) stmt() {}

func (s *Insert) String() string {
	return fmt.Sprintf("INSERT INTO %s VALUES ... (%d rows)", s.Table, len(s.Rows))
}

// Prepare is PREPARE name AS statement: plan once, execute many times
// with $n parameter bindings.
type Prepare struct {
	Name string
	// Stmt is the inner statement (SELECT or INSERT).
	Stmt Statement
	// Text is the inner statement's SQL source, kept for listings.
	Text string
}

func (*Prepare) stmt() {}

func (s *Prepare) String() string { return fmt.Sprintf("PREPARE %s AS %s", s.Name, s.Text) }

// Explain is EXPLAIN [ANALYZE] statement: render the plan the session
// would choose (lane, parallelism, cache state) without caching it;
// with ANALYZE the inner statement also executes and the output gains
// actual row counts and per-stage timings.
type Explain struct {
	Analyze bool
	// Stmt is the inner statement (SELECT or INSERT).
	Stmt Statement
	// Text is the inner statement's SQL source, used to probe the plan
	// cache for an existing plan under the same key.
	Text string
}

func (*Explain) stmt() {}

func (s *Explain) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}

// Execute is EXECUTE name(args): run a prepared statement with the given
// parameter values.
type Execute struct {
	Name string
	Args []Expr
}

func (*Execute) stmt() {}

func (s *Execute) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	if len(parts) == 0 {
		return "EXECUTE " + s.Name
	}
	return fmt.Sprintf("EXECUTE %s(%s)", s.Name, strings.Join(parts, ", "))
}

// Deallocate is DEALLOCATE [PREPARE] name — drop a prepared statement.
type Deallocate struct {
	Name string
	// All marks DEALLOCATE ALL.
	All bool
}

func (*Deallocate) stmt() {}

func (s *Deallocate) String() string {
	if s.All {
		return "DEALLOCATE ALL"
	}
	return "DEALLOCATE " + s.Name
}

// CreateTableAs is CREATE TABLE name AS SELECT ... — the paper's staging
// pattern (§4.1) expressed in pure SQL.
type CreateTableAs struct {
	Name        string
	IfNotExists bool
	Query       *Select
}

func (*CreateTableAs) stmt() {}

func (s *CreateTableAs) String() string {
	ine := ""
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	return fmt.Sprintf("CREATE TABLE %s%s AS %s", ine, s.Name, s.Query.String())
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// JoinClause is the optional `JOIN table ON cond` part of a FROM clause.
type JoinClause struct {
	// Left marks LEFT [OUTER] JOIN; false is an inner join.
	Left  bool
	Table string
	Alias string
	// On is the join condition; the planner requires an equality of one
	// column from each side.
	On  Expr
	Pos int
}

func (j *JoinClause) String() string {
	kw := "JOIN"
	if j.Left {
		kw = "LEFT JOIN"
	}
	s := kw + " " + j.Table
	if j.Alias != "" {
		s += " " + j.Alias
	}
	return s + " ON " + j.On.String()
}

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	// Star is the bare `*` item.
	Star bool
	// Expr is the projected expression (nil when Star).
	Expr Expr
	// Expand marks `(expr).*`: the expression must be a composite-valued
	// madlib function whose record is expanded into columns.
	Expand bool
	// Alias is the optional [AS] name.
	Alias string
}

// Select is a SELECT statement.
type Select struct {
	// Distinct marks SELECT DISTINCT: duplicate output rows collapse.
	Distinct bool
	Items    []SelectItem
	From     string // empty for FROM-less SELECT
	// FromAlias is the optional alias of the FROM table.
	FromAlias string
	// Join is the optional JOIN clause over the FROM table.
	Join  *JoinClause
	Where Expr
	// GroupBy entries may be qualified ("d.name"); resolution maps them
	// onto the planning schema.
	GroupBy []string
	// Having filters groups after aggregation (may contain aggregates).
	Having  Expr
	OrderBy []OrderKey
	// Limit is the row cap; negative means no LIMIT clause.
	Limit int64
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star:
			b.WriteString("*")
		case it.Expand:
			b.WriteString("(" + it.Expr.String() + ").*")
		default:
			b.WriteString(it.Expr.String())
		}
	}
	if s.From != "" {
		b.WriteString(" FROM " + s.From)
		if s.FromAlias != "" {
			b.WriteString(" " + s.FromAlias)
		}
		if s.Join != nil {
			b.WriteString(" " + s.Join.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(s.GroupBy, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Expr.String())
			if k.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// Expr is any scalar expression node.
type Expr interface {
	expr()
	String() string
}

// Literal is a constant: int64, float64, string or bool.
type Literal struct {
	Val any
	Pos int
}

func (*Literal) expr() {}

func (e *Literal) String() string {
	if s, ok := e.Val.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return fmt.Sprintf("%v", e.Val)
}

// ArrayLit is an array literal `{1, 2}` or ARRAY[1, 2] (a Vector value).
type ArrayLit struct {
	Elems []Expr
	Pos   int
}

func (*ArrayLit) expr() {}

func (e *ArrayLit) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Param is a $n placeholder (1-based), bound to a value at EXECUTE time.
type Param struct {
	Idx int
	Pos int
}

func (*Param) expr() {}

func (e *Param) String() string { return fmt.Sprintf("$%d", e.Idx) }

// ColumnRef references a column of a FROM table by name, optionally
// qualified by a table name or alias (Table is "" for bare references;
// name resolution clears it once the reference is bound).
type ColumnRef struct {
	Table string
	Name  string
	Pos   int
}

func (*ColumnRef) expr() {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// Unary is -x, +x or NOT x.
type Unary struct {
	Op string // "-", "+", "NOT"
	X  Expr
}

func (*Unary) expr() {}

func (e *Unary) String() string {
	if e.Op == "NOT" {
		return "NOT " + e.X.String()
	}
	x := e.X.String()
	if strings.HasPrefix(x, "-") {
		x = "(" + x + ")" // "--" would start a comment
	}
	return e.Op + x
}

// Binary is a binary operation: arithmetic (+ - * / %), comparison
// (= <> != < <= > >=), or logic (AND, OR).
type Binary struct {
	Op   string
	L, R Expr
	Pos  int
}

func (*Binary) expr() {}

// String renders fully parenthesized, so the output re-parses to the
// same tree (the parser-fuzz round-trip property).
func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}

// OverClause is the window specification of `fn(...) OVER (...)`.
type OverClause struct {
	PartitionBy []Expr
	OrderBy     []OrderKey
	Pos         int
}

func (o *OverClause) String() string {
	var b strings.Builder
	b.WriteString("OVER (")
	if len(o.PartitionBy) > 0 {
		b.WriteString("PARTITION BY ")
		for i, e := range o.PartitionBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
	}
	if len(o.OrderBy) > 0 {
		if len(o.PartitionBy) > 0 {
			b.WriteString(" ")
		}
		b.WriteString("ORDER BY ")
		for i, k := range o.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Expr.String())
			if k.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	b.WriteString(")")
	return b.String()
}

// FuncCall is fn(args) or madlib.fn(args). Star marks count(*). A non-nil
// Over makes the call a window function.
type FuncCall struct {
	// Schema is the optional qualifier; "madlib" selects the method
	// namespace, empty the built-in aggregates.
	Schema string
	Name   string
	Args   []Expr
	Star   bool
	Over   *OverClause
	Pos    int
}

func (*FuncCall) expr() {}

func (e *FuncCall) String() string {
	name := e.Name
	if e.Schema != "" {
		name = e.Schema + "." + name
	}
	var s string
	if e.Star {
		s = name + "(*)"
	} else {
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		s = name + "(" + strings.Join(parts, ", ") + ")"
	}
	if e.Over != nil {
		s += " " + e.Over.String()
	}
	return s
}
