// Package engine implements the shared-nothing parallel database substrate
// that MADlib assumes underneath it (paper §1, §3.1): typed tables
// partitioned across N segments, each segment processed by its own worker,
// with two-phase user-defined aggregation (transition on each segment,
// merge across segments, final once), grouped aggregation, filters,
// projections, in-place updates, temp tables and a catalog.
//
// A "segment" corresponds to a Greenplum segment: a query process that owns
// one horizontal partition of every table. Our segments are goroutines, so
// the paper's parallel-speedup experiments (Figures 4 and 5) sweep the
// engine's segment count the way the authors swept their cluster's.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"madlib/internal/metrics"
)

// Kind enumerates the column types the engine stores. The set mirrors what
// the paper's methods need: DOUBLE PRECISION, DOUBLE PRECISION[] (vectors),
// BIGINT, TEXT, and BOOLEAN.
type Kind int

const (
	// Float is a DOUBLE PRECISION column.
	Float Kind = iota
	// Vector is a DOUBLE PRECISION[] column.
	Vector
	// Int is a BIGINT column.
	Int
	// String is a TEXT column.
	String
	// Bool is a BOOLEAN column.
	Bool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Float:
		return "double precision"
	case Vector:
		return "double precision[]"
	case Int:
		return "bigint"
	case String:
		return "text"
	case Bool:
		return "boolean"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Column describes one column of a table schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column, or -1 when absent.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on a missing column; used by method code
// after validation has already happened.
func (s Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("engine: no column %q", name))
	}
	return i
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// Errors reported by the engine.
var (
	ErrNoTable     = errors.New("engine: no such table")
	ErrTableExists = errors.New("engine: table already exists")
	ErrNoColumn    = errors.New("engine: no such column")
	ErrType        = errors.New("engine: value does not match column type")
	ErrArity       = errors.New("engine: wrong number of values for schema")
)

// colData is the columnar storage for one column within one segment. Only
// the slice matching the column's Kind is used.
type colData struct {
	floats []float64
	vecs   [][]float64
	ints   []int64
	strs   []string
	bools  []bool
}

func (c *colData) truncate() {
	c.floats = c.floats[:0]
	c.vecs = c.vecs[:0]
	c.ints = c.ints[:0]
	c.strs = c.strs[:0]
	c.bools = c.bools[:0]
}

// Segment is one horizontal partition of a table. All rows of a segment are
// processed by a single worker during parallel execution, so per-segment
// state needs no synchronization — the same contract Greenplum gives a
// transition function.
type Segment struct {
	cols []colData
	n    int
}

// Len returns the number of rows stored in the segment.
func (s *Segment) Len() int { return s.n }

// Floats exposes the raw float column storage of the segment. This is the
// "bypass the abstraction layer" path used by the v0.1alpha reproduction,
// which modeled hand-written C working directly on the datum array.
func (s *Segment) Floats(col int) []float64 { return s.cols[col].floats }

// Vectors exposes the raw vector column storage of the segment.
func (s *Segment) Vectors(col int) [][]float64 { return s.cols[col].vecs }

// Ints exposes the raw int column storage of the segment.
func (s *Segment) Ints(col int) []int64 { return s.cols[col].ints }

// Strings exposes the raw string column storage of the segment.
func (s *Segment) Strings(col int) []string { return s.cols[col].strs }

// Row is a lightweight cursor pointing at one row of one segment. Accessors
// fetch typed values by column index; vector access is zero-copy.
type Row struct {
	seg *Segment
	idx int
}

// Float returns the float64 value in the given column.
func (r Row) Float(col int) float64 { return r.seg.cols[col].floats[r.idx] }

// Vector returns the []float64 value in the given column without copying.
// Callers must not retain or mutate it beyond the current call unless they
// own the table.
func (r Row) Vector(col int) []float64 { return r.seg.cols[col].vecs[r.idx] }

// Int returns the int64 value in the given column.
func (r Row) Int(col int) int64 { return r.seg.cols[col].ints[r.idx] }

// Str returns the string value in the given column.
func (r Row) Str(col int) string { return r.seg.cols[col].strs[r.idx] }

// Bool returns the bool value in the given column.
func (r Row) Bool(col int) bool { return r.seg.cols[col].bools[r.idx] }

// Index returns the row's position within its segment.
func (r Row) Index() int { return r.idx }

// Table is a named, schema-typed, segment-partitioned relation.
type Table struct {
	name   string
	schema Schema
	segs   []*Segment
	temp   bool

	mu        sync.Mutex
	nextSeg   int   // round-robin insertion pointer
	totalRows int64 // maintained on insert for O(1) Count

	// dataMu latches segment storage: mutators (Insert, AppendColumns,
	// Truncate, UpdateInt) hold it exclusively for the whole
	// mutation; scan drivers hold it shared for the whole scan. The REPL
	// never needed this — one session, one statement at a time — but the
	// wire server runs many sessions against one shared engine, where an
	// append can reallocate a column lane out from under a running scan.
	dataMu sync.RWMutex

	// version counts data mutations made through the table/engine API
	// (Insert, AppendColumns, Truncate, UpdateInt). Derived
	// results (the join cache's materializations, DB.Join) compare
	// versions to decide whether their input changed. Code that writes
	// segment storage directly bypasses the counter — such writers own
	// the table and must not share it with cached consumers.
	version atomic.Int64
}

// Version returns the table's data-mutation counter. Two equal Version
// reads with the same *Table pointer mean no API-level mutation happened
// in between.
func (t *Table) Version() int64 { return t.version.Load() }

// latchRead takes the shared data latch on every distinct table, in
// name order so two multi-table readers racing writers cannot deadlock
// (a queued writer blocks later readers, so unordered acquisition could
// cycle). The returned func releases all of them.
func latchRead(tables ...*Table) func() {
	held := make([]*Table, 0, len(tables))
	for _, t := range tables {
		dup := false
		for _, h := range held {
			if h == t {
				dup = true
				break
			}
		}
		if !dup {
			held = append(held, t)
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i].name < held[j].name })
	for _, t := range held {
		t.dataMu.RLock()
	}
	return func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i].dataMu.RUnlock()
		}
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema (callers must not mutate it).
func (t *Table) Schema() Schema { return t.schema }

// Temp reports whether the table was created as a temporary table.
func (t *Table) Temp() bool { return t.temp }

// Segments returns the table's segments.
func (t *Table) Segments() []*Segment { return t.segs }

// Count returns the total number of rows across all segments.
func (t *Table) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalRows
}

func newSegment(schema Schema) *Segment {
	return &Segment{cols: make([]colData, len(schema))}
}

// checkValue reports whether v is storable in a column of kind k (the
// same acceptance rules appendValue applies). Insert paths validate the
// whole row first so a mid-row type error cannot leave column lanes
// partially appended and misaligned.
func checkValue(k Kind, v any) error {
	ok := false
	switch k {
	case Float:
		switch v.(type) {
		case float64, int, int64:
			ok = true
		}
	case Vector:
		_, ok = v.([]float64)
	case Int:
		switch v.(type) {
		case int64, int:
			ok = true
		}
	case String:
		_, ok = v.(string)
	case Bool:
		_, ok = v.(bool)
	}
	if !ok {
		return fmt.Errorf("%w: %T into %s", ErrType, v, k)
	}
	return nil
}

// appendValue appends a checkValue-validated value to c. The acceptance
// rules live in checkValue alone; a value that slipped past it panics
// on the type assertion here rather than silently misaligning lanes.
func appendValue(c *colData, k Kind, v any) {
	switch k {
	case Float:
		switch x := v.(type) {
		case float64:
			c.floats = append(c.floats, x)
		case int:
			c.floats = append(c.floats, float64(x))
		case int64:
			c.floats = append(c.floats, float64(x))
		}
	case Vector:
		c.vecs = append(c.vecs, v.([]float64))
	case Int:
		switch x := v.(type) {
		case int64:
			c.ints = append(c.ints, x)
		case int:
			c.ints = append(c.ints, int64(x))
		}
	case String:
		c.strs = append(c.strs, v.(string))
	case Bool:
		c.bools = append(c.bools, v.(bool))
	}
}

// Insert appends one row, distributing rows round-robin across segments
// (the engine's default distribution policy).
func (t *Table) Insert(values ...any) error {
	if len(values) != len(t.schema) {
		return fmt.Errorf("%w: got %d values for %d columns", ErrArity, len(values), len(t.schema))
	}
	for i, v := range values {
		if err := checkValue(t.schema[i].Kind, v); err != nil {
			return fmt.Errorf("column %q: %w", t.schema[i].Name, err)
		}
	}
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	t.mu.Lock()
	seg := t.segs[t.nextSeg]
	t.nextSeg = (t.nextSeg + 1) % len(t.segs)
	t.totalRows++
	t.mu.Unlock()
	for i, v := range values {
		appendValue(&seg.cols[i], t.schema[i].Kind, v)
	}
	seg.n++
	// Bump only after the row is visible (seg.n incremented): version
	// consumers capture Version before reading, so a bump-before-write
	// could stamp derived results as current while missing the row.
	t.version.Add(1)
	return nil
}

// Truncate removes all rows but keeps the schema and segment structure.
func (t *Table) Truncate() {
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.segs {
		for i := range s.cols {
			s.cols[i].truncate()
		}
		s.n = 0
	}
	t.totalRows = 0
	t.nextSeg = 0
	t.version.Add(1)
}

// DB is the database instance: a catalog of tables and a fixed segment
// count that controls the parallelism of every query.
type DB struct {
	segments int

	mu      sync.RWMutex
	tables  map[string]*Table
	tempSeq int64
	// joins is the join materialization cache (Join); mu guards the map,
	// so an entry exists only while both of its inputs are in tables.
	joins map[joinKey]*joinEntry

	// metrics is this database's observability registry; every counter
	// below is resolved from it once at Open so the hot paths pay one
	// atomic add, never a registry lookup. The SQL layer adds its own
	// counters (plan cache, lanes, join cache) to the same registry and
	// exposes the combined Snapshot as the madlib_stats_counters view.
	metrics *metrics.Registry
	// Statistics counters used by the overhead experiments (§4.4) and
	// the observability layer (PR 6).
	queries     *metrics.Counter
	rowsScanned *metrics.Counter
	// seqScans / parScans count scan dispatch decisions: inline
	// sequential fallback vs morsel worker pool. morsels counts the
	// sub-segment morsels the scheduler produced (one per segment for
	// small segments, seg.n/MorselRows for large ones).
	seqScans *metrics.Counter
	parScans *metrics.Counter
	morsels  *metrics.Counter
	// sortPar / sortSeq count SortStable dispatch decisions: chunked
	// parallel sort + k-way merge vs plain sequential stable sort.
	sortPar *metrics.Counter
	sortSeq *metrics.Counter
	// joinBuilds / joinBuild track hash-join build+probe work.
	joinBuilds *metrics.Counter
	joinBuild  *metrics.Histogram
}

// Open creates a database with the given number of segments (at least 1).
func Open(segments int) *DB {
	if segments < 1 {
		segments = 1
	}
	reg := metrics.NewRegistry()
	return &DB{
		segments:    segments,
		tables:      make(map[string]*Table),
		joins:       make(map[joinKey]*joinEntry),
		metrics:     reg,
		queries:     reg.Counter("engine_queries"),
		rowsScanned: reg.Counter("engine_rows_scanned"),
		seqScans:    reg.Counter("engine_scans_sequential"),
		parScans:    reg.Counter("engine_scans_parallel"),
		morsels:     reg.Counter("engine_morsels"),
		sortPar:     reg.Counter("engine_sort_parallel"),
		sortSeq:     reg.Counter("engine_sort_sequential"),
		joinBuilds:  reg.Counter("engine_join_builds"),
		joinBuild:   reg.Histogram("engine_join_build"),
	}
}

// SegmentCount returns the number of segments the database was opened with.
func (db *DB) SegmentCount() int { return db.segments }

// Metrics returns the database's observability registry.
func (db *DB) Metrics() *metrics.Registry { return db.metrics }

// RowsScanned returns the total number of rows fed through transition
// functions so far.
func (db *DB) RowsScanned() int64 { return db.rowsScanned.Value() }

// CreateTable registers a new permanent table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	return db.createTable(name, schema, false)
}

// CreateTempTable registers a table flagged as temporary; the driver
// framework (internal/core) uses these for inter-iteration state exactly as
// the paper's Python drivers use CREATE TEMP TABLE (§3.1.2).
func (db *DB) CreateTempTable(prefix string, schema Schema) (*Table, error) {
	return db.createTable(db.nextTempName(prefix), schema, true)
}

// nextTempName reserves the next unique temporary-table name for prefix.
func (db *DB) nextTempName(prefix string) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tempSeq++
	return fmt.Sprintf("%s_tmp_%d", prefix, db.tempSeq)
}

func (db *DB) createTable(name string, schema Schema, temp bool) (*Table, error) {
	t, err := newTable(name, schema, temp, db.segments)
	if err != nil {
		return nil, err
	}
	if err := db.register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// newTable validates schema and builds an empty table over segments
// segments, in no catalog yet.
func newTable(name string, schema Schema, temp bool, segments int) (*Table, error) {
	if len(schema) == 0 {
		return nil, errors.New("engine: empty schema")
	}
	seen := map[string]bool{}
	for _, c := range schema {
		if c.Name == "" {
			return nil, errors.New("engine: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	t := &Table{name: name, schema: schema.Clone(), temp: temp}
	t.segs = make([]*Segment, segments)
	for i := range t.segs {
		t.segs[i] = newSegment(schema)
	}
	return t, nil
}

// register enters t into the catalog under its name.
func (db *DB) register(t *Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[t.name]; exists {
		return fmt.Errorf("%w: %q", ErrTableExists, t.name)
	}
	db.tables[t.name] = t
	return nil
}

// ColumnData is one column of rows handed to AppendColumns: the lane
// matching the column's kind holds one value per row, the others are nil.
type ColumnData struct {
	Floats  []float64
	Vectors [][]float64
	Ints    []int64
	Strings []string
	Bools   []bool
}

// size returns the number of values in the lane of kind k.
func (c *ColumnData) size(k Kind) int {
	switch k {
	case Float:
		return len(c.Floats)
	case Vector:
		return len(c.Vectors)
	case Int:
		return len(c.Ints)
	case String:
		return len(c.Strings)
	}
	return len(c.Bools)
}

// AppendColumns appends n rows given column-wise, as one mutation: INSERT's
// and CREATE TABLE AS's storage sink. Every lane's length is checked
// before anything is written; then, under one exclusive latch, row r
// lands where the r-th of n Inserts would put it (round-robin from the
// insertion pointer) and the version bumps once. A reader sees none of
// the rows or all of them.
func (t *Table) AppendColumns(n int, cols []ColumnData) error {
	if len(cols) != len(t.schema) {
		return fmt.Errorf("%w: got %d columns for %d", ErrArity, len(cols), len(t.schema))
	}
	for ci, c := range t.schema {
		if have := cols[ci].size(c.Kind); have != n {
			return fmt.Errorf("%w: column %q holds %d %s values for %d rows", ErrType, c.Name, have, c.Kind, n)
		}
	}
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	t.mu.Lock()
	first, nseg := t.nextSeg, len(t.segs)
	t.nextSeg = (first + n) % nseg
	t.totalRows += int64(n)
	t.mu.Unlock()
	for ci, c := range t.schema {
		d := &cols[ci]
		switch c.Kind {
		case Float:
			dealLane(t.segs, first, ci, d.Floats, func(l *colData) *[]float64 { return &l.floats })
		case Vector:
			dealLane(t.segs, first, ci, d.Vectors, func(l *colData) *[][]float64 { return &l.vecs })
		case Int:
			dealLane(t.segs, first, ci, d.Ints, func(l *colData) *[]int64 { return &l.ints })
		case String:
			dealLane(t.segs, first, ci, d.Strings, func(l *colData) *[]string { return &l.strs })
		case Bool:
			dealLane(t.segs, first, ci, d.Bools, func(l *colData) *[]bool { return &l.bools })
		}
	}
	for k := 0; k < nseg && k < n; k++ {
		t.segs[(first+k)%nseg].n += (n - k + nseg - 1) / nseg
	}
	t.version.Add(1) // after the rows are visible; see Insert
	return nil
}

// dealLane appends vals to column ci's lanes round-robin: value r goes to
// segment (first+r) mod the segment count.
func dealLane[T any](segs []*Segment, first, ci int, vals []T, lane func(*colData) *[]T) {
	nseg := len(segs)
	for k := 0; k < nseg && k < len(vals); k++ {
		l := lane(&segs[(first+k)%nseg].cols[ci])
		*l = slices.Grow(*l, (len(vals)-k+nseg-1)/nseg)
		for r := k; r < len(vals); r += nseg {
			*l = append(*l, vals[r])
		}
	}
}

// CreateTableFrom registers a new permanent table that already holds n
// rows, given column-wise (AppendColumns into a fresh table): its
// version reads 1, and the catalog only learns the name once every
// segment is filled — no reader can see a partial table, and a failure
// leaves nothing behind.
func (db *DB) CreateTableFrom(name string, schema Schema, n int, cols []ColumnData) (*Table, error) {
	t, err := newTable(name, schema, false, db.segments)
	if err != nil {
		return nil, err
	}
	if err := t.AppendColumns(n, cols); err != nil {
		return nil, err
	}
	if err := db.register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// NewDetachedTable builds a table that is NOT registered in any catalog:
// the SQL layer materializes system views (madlib_stats_*) and a
// table-valued call's staged input into detached tables per execution,
// and the join cache (Join) holds its materializations in them, so they
// flow through the ordinary scan machinery and the methods without
// polluting the catalog or temp-table namespace, and nothing is left to
// drop. The caller owns the table; segments is clamped to at least 1.
func NewDetachedTable(name string, schema Schema, segments int) (*Table, error) {
	if segments < 1 {
		segments = 1
	}
	return newTable(name, schema, true, segments)
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// DropTable removes a table from the catalog, and from the join cache
// every join that reads it.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	db.unregister(name)
	return nil
}

// unregister removes the named table, if any, from the catalog and its
// joins from the join cache. The caller holds db.mu.
func (db *DB) unregister(name string) {
	t := db.tables[name]
	delete(db.tables, name)
	for k := range db.joins {
		if k.left == t || k.right == t {
			delete(db.joins, k)
		}
	}
}

// TableNames returns the sorted names of all catalog tables; the profile
// module's templated queries start here (§3.1.3).
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GenerateSeries creates (or replaces) a table with a single Int column "i"
// holding from..to inclusive, reproducing the counted-iteration virtual
// table pattern of §3.1.2 (PostgreSQL's generate_series).
func (db *DB) GenerateSeries(name string, from, to int64) (*Table, error) {
	db.mu.Lock()
	db.unregister(name)
	db.mu.Unlock()
	t, err := db.CreateTable(name, Schema{{Name: "i", Kind: Int}})
	if err != nil {
		return nil, err
	}
	for i := from; i <= to; i++ {
		if err := t.Insert(i); err != nil {
			return nil, err
		}
	}
	return t, nil
}
