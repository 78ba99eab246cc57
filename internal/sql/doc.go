// Package sql is the declarative front-end of the library: a hand-written
// lexer, a recursive-descent parser, and a planner/executor that compile a
// practical SQL dialect down to the engine's parallel primitives
// (two-phase aggregation, filtered scans, grouped aggregation, column-wise
// staging). It is what turns the reproduction back into the system the
// paper describes — analytics driven from SQL, with the method suite
// exposed as a madlib.* function namespace (§4.1).
//
// # Entry points
//
// A Session wraps an engine database:
//
//	sess := sql.NewSession(eng)
//	results, err := sess.Exec(`CREATE TABLE t (v float); INSERT INTO t VALUES (1);`)
//	res, err := sess.Query(`SELECT avg(v) FROM t`)
//
// The public facade re-exports these as madlib.DB.Exec / madlib.DB.Query,
// and `madlib sql` wraps them in an interactive REPL.
//
// # Statements
//
//	CREATE TABLE [IF NOT EXISTS] name (col type, ...)
//	CREATE TABLE [IF NOT EXISTS] name AS select
//	DROP TABLE [IF EXISTS] name
//	INSERT INTO name [(col, ...)] VALUES (expr, ...), ...
//	SELECT [DISTINCT] item, ...
//	       [FROM name [[AS] alias] [join]]
//	       [WHERE expr] [GROUP BY [qual.]col, ...]
//	       [HAVING expr] [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
//	join := [INNER] JOIN name [[AS] alias] ON a.x = b.y
//	      | LEFT [OUTER] JOIN name [[AS] alias] ON a.x = b.y
//	PREPARE name AS select-or-insert
//	EXECUTE name[(expr, ...)]
//	DEALLOCATE [PREPARE] (name | ALL)
//	EXPLAIN [ANALYZE] (select | insert)
//
// HAVING filters groups after aggregation and may reference aggregates
// (also ones not in the SELECT list) and GROUP BY columns; without
// GROUP BY it treats the whole table as one group.
//
// A multi-row INSERT is all or nothing: every row is evaluated and
// coerced before the first is stored.
//
// # Joins
//
// One two-table equi-join per SELECT, executed as a broadcast hash join
// (engine.DB.Join): the right side is hashed once into typed (unboxed)
// key maps, left segments probe in parallel batch-at-a-time over their
// key lanes, and matches materialize column-wise; output rows stay on
// their probe row's segment. The ON condition must be an equality of
// one bigint or text column from each side. Columns are referenced bare
// (when unambiguous) or qualified by table name or alias; right-side
// names that collide with left-side names appear in SELECT * output
// prefixed with the right table's name.
//
// The join output materializes into a detached table held by the
// engine's join cache, one per distinct join (both input tables, both
// keys, inner or outer) over the database, not per plan or statement
// text: every statement, prepared statement, EXPLAIN ANALYZE and session
// that runs the same join skips the whole build+probe while neither
// input table's data version changed, and any INSERT/UPDATE/TRUNCATE
// through the engine API makes the next execution rebuild. The
// materialization never enters the catalog; DROP TABLE of either input
// discards it, so plans own no storage and need no cleanup.
//
// LEFT JOIN keeps unmatched left rows. The engine's columnar storage has
// no NULL representation, so the join materializes a hidden boolean
// marker column (engine.MatchedCol) and the planner compiles references
// to right-side columns into NULL-aware row closures and
// validity-bitmap batch kernels: on unmatched rows they
// evaluate to SQL NULL, which propagates through arithmetic and NOT, is
// skipped by count(x)/sum/avg/min/max (count(*) still counts the row),
// and renders empty. Comparisons with NULL are false (three-valued logic
// collapsed to its predicate meaning: padded rows drop out of WHERE and
// HAVING in either comparison direction), while ORDER BY follows the
// Postgres placement rule: NULL sorts as the largest value, so NULLs
// come last under ASC and first under DESC, and so does a float
// NaN among numbers, equal to itself (order.go; pinned by the logictest
// corpus). GROUP BY and madlib.* arguments over
// nullable right-side columns are rejected at plan time rather than
// silently reading the zero padding.
//
// # Window functions
//
//	row_number() OVER (PARTITION BY expr, ... ORDER BY expr [DESC], ...)
//	rank()       OVER (...)            -- ORDER BY peers share a rank
//	count(x|*)   OVER (...)            -- running count
//	sum(x)       OVER (...)            -- running sum
//	avg(x)       OVER (...)            -- running average
//
// Windows (§3.1.2 stateful iteration) gather their PARTITION BY and
// OVER-ORDER BY keys as typed lanes and sort them once with ORDER BY's
// comparator (partition keys, then order keys, then position); the
// gather and the fold run under one read latch on the input.
// Partitions fold in parallel as contiguous runs of that order, rows
// within a partition sequentially in ORDER BY order carrying state; an
// error is the earliest failing row's in the output order. Running
// aggregates use ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
// framing (ORDER BY peers are not collapsed — this deviates from the
// SQL default RANGE framing and is pinned by the logictest corpus).
// ORDER BY inside the OVER clause is required: whole-partition frames (OVER () or OVER
// (PARTITION BY ...) without ORDER BY) would need a second pass and are
// rejected rather than returning storage-order-dependent running
// values. All window calls in one SELECT must share the same OVER
// clause; window calls may not appear in WHERE/HAVING/ORDER BY or mix
// with aggregate queries. Without a SELECT-level ORDER BY, output is
// ordered by partition key value, then window order within each
// partition.
//
// # DISTINCT and CREATE TABLE AS
//
// SELECT DISTINCT dedupes the projected rows (first occurrence wins)
// using the same injective value encoding as composite group keys, so
// -0/+0 and NaNs collapse exactly like GROUP BY keys. It composes with
// scans, joins and aggregate outputs.
//
// CREATE TABLE name AS SELECT ... materializes any SELECT (including
// joins, windows and DISTINCT) into a new permanent table — the
// paper's §4.1 staging pipeline in pure SQL. Output column types are
// inferred from the result values (from the plan where a column holds
// none and its type is static, so an empty result still creates its
// table); NULLs cannot be stored (the engine has no NULL
// representation), and expression columns must carry an alias so the
// created column is referenceable. The table is checked, filled and
// only then registered: another session sees no table or all of it, and
// a failed statement leaves nothing behind. CTAS is DDL: like CREATE and
// DROP TABLE, it evicts the cached plans it made stale (those over a
// system view its new table now shadows); plans over other tables stay
// cached.
//
// Statements are ';'-separated; `--` starts a line comment. Unquoted
// identifiers fold to lowercase, as in PostgreSQL.
//
// # Prepared statements and parameters
//
// PREPARE plans a SELECT or INSERT once; EXECUTE runs it with values
// bound to its $1, $2, ... placeholders (arity-checked). Parameters may
// appear anywhere a scalar expression does — WHERE clauses, projections,
// built-in aggregate arguments, HAVING, INSERT values — and in two
// madlib.* positions: scalar (column-free) arguments of table-valued
// calls, which resolve at EXECUTE time (madlib.kmeans(coords, $1)), and
// the WHERE clause in front of any call, which is the WHERE clause of
// the call's staged input scan. Per-row computed madlib arguments
// (tag + $1) still reject parameters, because the type of the column
// they are staged into must be known at plan time:
//
//	PREPARE hot AS SELECT g, avg(v) FROM t WHERE v > $1 GROUP BY g;
//	EXECUTE hot(0.25);
//	EXECUTE hot(0.75);
//
// # Execution lanes
//
// The executor is compile-once-execute-many, with two expression
// evaluators: compiled row closures (compile.go) and native batch
// kernels (compile_batch.go). Every expression compiles once, when its
// statement is planned: the scan's consumers, and the stages that run
// after the scan — an aggregate's HAVING, SELECT list and ORDER BY per
// group, a window's output items and outer ORDER BY per row, FROM-less
// SELECTs, INSERT values, EXECUTE arguments and constant madlib
// arguments. An output stage's inputs (finalized aggregate and window
// values, GROUP BY keys, output aliases) are slots its compile context
// binds to positions in one per-evaluation value vector, so its type
// errors surface at plan time like any other expression's: HAVING false
// AND 'x' fails exactly as the same WHERE clause does.
//
// Every FROM-bearing SELECT
// shape has exactly one executor, and it is batch- and morsel-driven:
// projection scans and the window gather run on engine.ForEachBatchCtx
// (which hands the executor the morsel count under the scan's own latch,
// so per-morsel buffers always fit the morsels scanned), aggregates,
// grouped or not, on engine.RunBatched. What varies is
// decided one level down, per consumer: each WHERE predicate, projected
// item (SELECT list, ORDER BY key over the input row, window PARTITION
// BY / ORDER BY key), aggregate call and GROUP BY key lowers either to
// a native column kernel or to a kernel that runs its compiled row
// closure over the batch's selection vector (lowering, exec_batch.go and
// aggregate.go).
// One statement can mix the two freely — a vectorized comparison AND-ed
// under a closure predicate, a columnar item beside a Vector item, a
// native sum beside a bool max whose lane its closure fills — and the
// lane is never a property of the plan.
//
// The native kernels (compile_batch.go, exec_batch.go) are what every
// consumer takes when it can. The engine hands kernels an
// engine.ColBatch — a typed, zero-copy window of up to
// engine.BatchSize (1024) rows over one segment's columnar storage —
// and compiled kernels fill whole []float64 / []int64 / []string /
// []bool lanes per call. WHERE predicates produce selection vectors
// (the batch-local indices of surviving rows) that every downstream
// consumer respects, so filtered-out rows are never evaluated; AND/OR
// evaluate their right operand only over the sub-selection the left
// operand did not decide, preserving the closures' short-circuit
// semantics (x <> 0 AND 1/x > 2 cannot fault). Each built-in aggregate
// has one accumulator per lane kind (aggregate.go): a masked lane fold
// into one state, a grouped lane fold into a column of per-group states
// (count's []int64, sum's []numAccState, min's []extremeState; madlib
// aggregates keep a []any column), a merge and a final. Its argument
// lane comes from the native kernel or from the row closure run over the
// selection, and the same accumulator folds either one. The grouped
// executor numbers each morsel's groups densely in first-seen order: a
// batch's key lane (an int64 for a single Int, Bool or Float column, the
// string for a single text column, an injective encoding otherwise)
// resolves through the morsel's open-addressing key index to a lane of
// group ids, a new group records its key values off its first row in
// typed key columns, and each aggregate folds its argument lane into its
// state column through the ids. sum, avg, variance and stddev keep the
// same state, so a statement's natively lowered calls of them over one
// bare column fold and merge one shared column, each taking its own
// final from it. Nothing is allocated per group or per
// row in the scan, and the per-morsel group tables are pooled with the
// plan (a merged table larger than a morsel is not). The morsels'
// tables merge into the first one left to right in morsel order, and
// each group boxes its key values and finals once, at output. Ungrouped
// single-aggregate queries whose argument is a bare column (or count)
// take a further fused filter+aggregate path: the predicate fills one
// bool lane and the aggregate folds the raw column lane against it —
// no selection vector, no gather. Scan SELECT items fill typed lanes
// per batch and append them to the morsel's result chunk (see Result
// path); SELECT DISTINCT dedupes over the boxed form of that output, and
// window queries gather their partition/order input through the same
// items before the per-partition fold, which stays row-at-a-time by
// definition. Kernel scratch is allocated per morsel and pooled across
// executions of a cached plan.
//
// Execution is morsel-parallel: the engine splits every segment into
// sub-segment morsels — batch-aligned row spans of up to
// engine.MorselRows (4096) rows — and hands them to a pool of up to
// GOMAXPROCS workers, so one oversized segment no longer serializes a
// scan. Per-morsel states merge left-to-right in morsel order (a
// refinement of segment order) afterwards, so results, including
// non-associative float sums, are bit-identical to sequential
// execution, whichever form each consumer took. Cancellation is polled
// at every morsel boundary for every shape. Tables below
// engine.ParallelRowThreshold (4096 rows) run inline on the calling
// goroutine, so small tables never pay goroutine spawn costs. Sorting
// (order.go) compares rows in place in their chunk lanes through one
// comparator, built once per key from the lane's kind: a typed compare
// for int, float, text and bool lanes, NULL placement from the validity
// lane, compareOrderKeys only for a boxed lane, DESC flipping the
// result, and ties broken by the row's position in table order. Every
// SELECT shape sorts its output chunks through it in the one output
// tail (sortSpec.finish, below), and the grouped aggregate's default
// order sorts its typed group-key lanes the same way. Under LIMIT k a
// bounded heap keeps each scan morsel's k first rows and only those
// candidates meet in the final sort (EXPLAIN's "sort: top-N heap"
// line). The morsels share one cut, the k-th best first key of the rows
// finished morsels kept (order.go's topBound): when the first key is a
// bare column with a typed lane, each batch evaluates it first, and
// rows that sort strictly after the cut are dropped before the other
// items are evaluated or gathered (sql_topn_rows_pruned counts them);
// an item that can fail still evaluates over every selected row. A
// full sort, like window partition
// ordering, goes through engine.(*DB).SortFunc / SortStable, which run
// per-worker pdqsorts with the index as the last key and merge them
// stably; the order, ties included, is the same at any worker count,
// and below 2*engine.ParallelRowThreshold rows or on a single core one
// sequential sort runs. The engine_morsels and engine_sort_parallel /
// engine_sort_sequential counters make both decisions observable.
//
// Join sources vectorize on both sides of the NULL divide. Inner joins
// materialize into an ordinary NULL-free temp table that the kernels
// scan unchanged. LEFT JOIN sources vectorize through validity bitmaps:
// each nullable right-side column gets a per-batch validity lane
// derived from the hidden matched marker, and the kernels are
// NULL-aware — comparisons clear selection bits where an operand is
// NULL, NOT re-evaluates its operand two-valued (NOT (NULL < 2) is
// true), arithmetic propagates invalidity before it can fault (a
// NULL-padded zero divisor raises no error), aggregates skip invalid
// positions (count(*) still counts the row; an all-NULL sum is NULL),
// and group keys read the raw padded lanes — exactly the closures'
// semantics, pinned by the differential harness.
//
// The row closures (compile.go) lower the same expressions to typed
// per-row Go functions with unboxed fast paths. Every expression
// compiles to them first — plan-time errors come from there — and they
// are what a consumer runs when it has no kernel. Consumers that lower
// to a row-closure kernel: Vector-typed operands (array literals,
// array_get, vector columns — in predicates, projections, group keys
// or window keys), bool min/max, $n parameters anywhere other than a
// comparison operand made of parameters and constants alone (id < $1 +
// 20000 has a kernel: the operand is a per-execution scalar, evaluated
// once per batch by the closure itself; sum(v + $1) has none), madlib
// scalar calls inside expressions and registered madlib aggregates (their rows fold through
// the aggregate's own transition function; the WHERE clause beside
// them still vectorizes and the scan still parallelizes). A built-in
// aggregate's closure lane feeds the same accumulator as its kernel
// would: typed closures fill float/int/text lanes, and bool, Vector and
// run-time-typed arguments fill a boxed lane whose NULLs the fold
// skips. An argument error aborts its morsel on either lane. A
// statement reports the first failure by morsel, then by batch, then
// by consumer (WHERE before the aggregate slots, slots in SELECT
// order), then by row. Two error sources inside one expression are not
// settled: a kernel evaluates it operand by operand, a closure row by
// row.
// EXPLAIN's lane line and the sql_lane_* counters read "row" only when
// no consumer of the statement lowered natively;
// TestRowLaneShapesPinned pins the decisions.
//
// Session.SetBatchExecution(false) is the oracle mode: same executors,
// same drivers, but every consumer lowers to its row closure. The
// differential tests in batch_diff_test.go run each statement in both
// modes, sequentially and under the worker pool, and require
// bit-identical rows and error text (division by zero, int64 overflow,
// NULL handling included) — kernels checked against closures, not one
// executor against another. FuzzExprLanes does the same for single
// generated expressions, as projections, predicates and aggregate
// arguments over a table and its LEFT JOIN-padded twin, with the
// FROM-less path as a third
// evaluation of column-free ones. A table-valued madlib.* call's staged
// input is one more projection scan, lowered the same way.
//
// Each Session keeps an LRU plan cache keyed by statement text:
// re-executing the same text skips parsing and planning entirely. DDL
// evicts the cached plans it made stale, and every cached or prepared
// plan also revalidates its table bindings against the catalog before
// running, so
// a DROP + re-CREATE (even through another session) can never execute a
// stale plan — it replans or errors cleanly. The madlib.DB facade routes
// Exec/Query through one shared session, so callers get plan caching
// without holding any extra state. BenchmarkSQLSelectAgg tracks the
// resulting SQL-vs-engine overhead (the paper's §4.4(a) study) with
// batch-vs-row, parallel, join, projection, LEFT JOIN, window and
// sort sub-benchmarks; scripts/bench_sql.sh records them to
// BENCH_sql.json and scripts/bench_check.sh gates CI three ways:
// absolutely (>25% ns/op regression of the SQL, SQLParallel,
// SQLJoinAgg, SQLJoinAggCached, SQLProjScan, SQLLeftJoinAgg,
// SQLWindow or SQLOrderBy entries fails), relatively (SQLProjScan
// and SQLLeftJoinAgg against their oracle-mode companions measured in
// the same run — a same-hardware kernel-versus-closure ratio under one
// driver, which holds on single-core runners) and by allocation count
// (the result path: PGWireBulkSelect at most 2 allocations per result
// row for server and client together, SQLBulkCTAS at most 0.1; the
// sorts read as typed chunks, SQLOrderByTyped and SQLOrderByLimit, at
// most 150 per statement, and SQLOrderBy, whose Result boxes 10,000
// float cells, at most 10,200).
//
// # Result path
//
// Every statement's product is a RowSet: column names, the plan's static
// column kinds, a command tag and a sequence of Chunks (rowset.go), in
// one layout: a chunk is ColBatch-shaped — one lane per output column,
// int64 / float64 / string / bool where the column has that kind, a
// validity lane beside it where the column can be NULL (the padded side
// of a LEFT JOIN), and a boxed []any lane only for values that have no
// typed lane. A projection scan emits typed lanes natively, one chunk
// per morsel that kept rows; its boxed lanes hold Vector columns, $n-typed
// expressions, madlib.* calls inside an expression, and everything in
// oracle mode. The window fold writes typed lanes for its window values
// and bare columns (its parallel runs each write their own rows of lanes
// sized to the result) and boxed lanes only for the items that are
// closures. The other plans whose values come from compiled closures —
// the aggregate output stage, table-valued calls, FROM-less SELECTs —
// write boxed lanes column by column, and EXPLAIN writes one text lane. An ORDER BY key that is not an output
// column is a lane of its own behind the output lanes.
//
// Every SELECT shape then ends in the same output tail over those lanes
// (sortSpec.finish): DISTINCT keeps the first occurrence of each
// distinct output row, keyed by its cells encoded injectively straight
// from the lanes (floatKeyBits for ±0 and NaN, the validity lane for
// NULL) through the keyIndex GROUP BY uses; ORDER BY then sorts through
// the key lanes and gathers the first LIMIT rows into one chunk, or
// else LIMIT alone cuts the chunks in place. A bare ORDER BY name means
// the output column it labels before any input column of that name,
// and one that labels two differently defined output columns is an
// error, as in Postgres (orderColumn). Chunks are released only once
// the whole gather has succeeded, so an execution error never follows
// a partial rowset.
//
// A RowSet has three sinks. The wire server (internal/pgwire) appends
// DataRows straight from the lanes into one reusable per-connection
// buffer with Chunk.AppendText — strconv.AppendInt/AppendFloat, no
// string per cell, no message object per row — and takes RowDescription
// type OIDs from RowSet.ColumnTypes, that is from the plan, so an empty
// result and a Describe are typed like a full result.
// The in-process API (Exec, Query, Run, ExecutePreparedContext; the
// REPL, the logic tests and the madlib.DB facade above them) calls
// RowSet.Result, the one place chunks are boxed into Result.Rows
// [][]any. CREATE TABLE AS reads the lanes column-wise
// (RowSet.storageColumns) into engine.CreateTableFrom, which deals rows
// to segments exactly as Insert would (Table.AppendColumns into a fresh
// table); a table-valued call's staged input takes the same sink into a
// detached table, and INSERT appends its coerced rows through
// AppendColumns too, so a multi-row INSERT becomes visible at once.
// ExecRowSets, ExecutePreparedRowSet
// and RunRowSet are the Exec/ExecutePreparedContext/Run forms that
// return the RowSet itself.
//
// What still boxes, and why: the per-group output stage reads its slots
// boxed (once per group, through compiled closures) and writes boxed
// lanes, since HAVING and the items over aggregate values have no
// kernels over the group chunk yet; so does a window item that is an
// expression over window values, or a window argument or outer ORDER BY
// key that is not a bare column — those closures see the row's window
// values boxed, while row_number, rank, count and the running sum/avg of
// a bare column fold into typed lanes. A statement's result is held
// whole until its gather ends (no in-scan streaming, no per-statement
// memory accounting yet).
//
// # Types
//
// The five engine kinds, under their common SQL spellings:
//
//	double precision | double | float | float8 | real | numeric  → Float
//	double precision[] | float[] | vector                        → Vector
//	bigint | int | integer | int8 | int4 | smallint              → Int
//	text | varchar | string | char                               → String
//	boolean | bool                                               → Bool
//
// Vector literals are written {1, 2, 3} or ARRAY[1, 2, 3].
//
// # Expressions
//
// Arithmetic (+ - * / %, integer ops stay integral), comparisons
// (= <> != < <= > >=), boolean logic (AND OR NOT), string literals with
// ” escaping, and scalar functions: abs, sqrt, exp, ln, floor, ceil,
// pow/power, length/array_length (text or array), array_get(v, i)
// (1-based).
//
// Each scalar function is defined once, in one table (scalar.go): its
// forms — the argument kinds each takes, its result kind and its
// per-value operation — and the error for an argument of a kind no form
// takes. The closure compiler, the batch kernel compiler, the run-time
// dispatch of arguments typed only at run time ($n, aggregate and
// window results in an output stage, LEFT JOIN columns) and the static
// typer all read it, so the lanes cannot disagree. An argument of a
// known kind that no form takes fails at plan time (abs over text), one
// typed only at run time with the same text at run time. The functions
// are strict, as in Postgres: a NULL argument gives NULL, so abs(sum(v))
// over no rows is one NULL row, and the kernel runs only over the rows
// whose arguments are all valid. abs of the minimum bigint wraps (as
// unary minus does), sqrt(-1) is NaN and ln(0) is -Infinity, where
// Postgres raises an error.
//
// # Aggregates
//
// count(*) / count(x), sum, avg, min, max, variance, stddev execute as
// engine two-phase aggregates (transition segment-parallel, merge across
// segments, final once — §3.1.1), and therefore compose with WHERE and
// GROUP BY. SELECT items may wrap aggregates in scalar expressions
// (avg(v) * 2), and ORDER BY may sort on aggregate expressions.
//
// # The madlib.* namespace
//
// Every registered library method is callable from SQL; dispatch goes
// through the internal/core registry (RegisterSQLFunc), so methods are
// never hard-coded in the executor. Two calling conventions exist:
//
// Aggregate functions behave like built-in aggregates and compose with
// WHERE and GROUP BY:
//
//	madlib.quantile(col, phi)
//	madlib.approx_quantile(col, eps, phi)
//	madlib.fmcount(col)
//
// Table-valued functions consume their whole FROM source — a table, an
// inner JOIN or a system view; a LEFT JOIN's NULL padding cannot be
// stored — after WHERE, and return their own result relation; they must
// be the only SELECT item, written with the paper's composite-expansion
// syntax:
//
//	SELECT (madlib.linregr(y, x)).* FROM data
//	SELECT madlib.kmeans(coords, k [, seed]).* FROM points
//	madlib.logregr(y, x [, solver [, max_iter [, tolerance]]])
//	madlib.naive_bayes(class, attrs)
//	madlib.c45(class, attrs)
//	madlib.svm(y, x [, mode])
//	madlib.assoc_rules(basket, item [, min_support [, min_confidence]])
//	madlib.profile()
//	madlib.svdmf(i, j, v, rank [, max_passes])
//	madlib.lda(doc, word, topics [, iterations [, seed]])
//	madlib.bootstrap(expr [, iterations [, fraction [, seed]]])
//	madlib.sgd_train(loss, y, x [, epochs [, step [, seed]]])
//
// sgd_train is the generic entry to the unified incremental-gradient
// harness (internal/igd): it trains any named convex loss — 'logistic',
// 'hinge' or 'least_squares' over a (label, feature-vector) pair, or
// 'factorization' over scalar (i, j, v) rating columns plus a rank —
// with the same morsel-parallel, vectorized epoch loop the dedicated
// logregr/svm/svdmf trainers run on. It returns one row: the loss name,
// the trained weights, the final epoch's mean loss, and the exact epoch
// and row counts. A non-zero seed reshuffles the morsel order every
// epoch, deterministically — the schedule depends only on (table shape,
// seed, epoch), never on the worker count:
//
//	SELECT (madlib.sgd_train('logistic', y, x, 20, 0.1, 42)).* FROM data
//	SELECT (madlib.sgd_train('factorization', i, j, v, 10, 30)).* FROM ratings
//
// Column arguments may also be computed expressions. For table-valued
// calls, linregr(y, array[1, x1, x2]) assembles a vector from scalar
// columns by staging its input, the pattern the paper's driver
// functions use (§3.1.2): with a WHERE clause or a computed argument the
// input is planned as an ordinary SELECT — SELECT *, array[1, x1, x2]
// AS _arg2 FROM data WHERE ... — run on the scan executor and gathered
// through the CREATE TABLE AS column sink into a detached table that
// never enters the catalog; without either the method reads its source
// as it stands. For scalar aggregates, quantile(v * 2, 0.5) or
// fmcount(i % 5) compile the expression straight into the aggregate's
// transition function. The
// unqualified spelling (linregr(...) without the madlib. prefix)
// resolves through the same registry.
//
// # Observability
//
// EXPLAIN renders the compiled plan as one row per line: the operator
// shape (Seq Scan / Hash Join / HashAggregate / WindowAgg / Function
// Scan / Insert), the execution lane the planner picked (row, batch or
// fused), the parallel-vs-sequential morsel decision with its reason
// (worker and morsel counts, or the row-threshold / GOMAXPROCS
// fallback), the join
// strategy with the materialization cache's current hit/miss state, and
// whether the statement's text already has a cached plan. EXPLAIN
// probes the plan cache but never populates it. EXPLAIN ANALYZE also
// executes the statement (including INSERTs) and appends actual rows,
// the engine's rows-scanned delta, and the parse/plan/exec wall-time
// split. Only SELECT and INSERT can be explained.
//
// Engine and session counters are queryable through three virtual
// system views, served by the ordinary executor:
//
//	SELECT * FROM madlib_stats_counters  -- name, value
//	SELECT * FROM madlib_stats_queries   -- query, lane, rows, duration_us, cache_hit
//	SELECT * FROM madlib_stats_tables    -- name, rows, segments, version, temp
//
// madlib_stats_counters snapshots the per-database metrics registry
// (internal/metrics): engine scan/join/query counters and the SQL
// layer's plan-cache, lane-pick, join-cache, replan and slow-query
// counters. madlib_stats_queries is the session's ring of the last 32
// observed statements, newest first; a statement never records itself.
// madlib_stats_tables lists the catalog including hidden temp tables,
// with engine data versions. Each view materializes a fresh snapshot
// per execution; a real table with the same name shadows its view.
// Views feed table-valued madlib functions like any table, but cannot be
// joined — stage them with CREATE TABLE ... AS first.
//
// Session.SetQueryLog attaches a log/slog logger: every observed
// statement at least as slow as the configured threshold is emitted
// with its text, duration, lane, row count and cache flag (threshold 0
// logs everything, and `madlib sql --slow-query-ms N` wires this up in
// the REPL, where \stats prints the counters view).
//
// # Models as data
//
// Coefficient-vector trainers take a persist form: a leading string
// argument names the model, and the fitted coefficients are written to
// the madlib_models catalog table instead of returning the stats
// relation —
//
//	SELECT (madlib.logregr('churn', y, x)).* FROM train_set;
//	-- model | kind | dims | num_rows | version
//
// linregr, logregr, svm and sgd_train all persist (sgd_train's model
// name precedes the loss; factorization refuses, having no coefficient
// vector). madlib.predict('name', f1, ...) scores rows in any query
// position with a FROM clause: the model is resolved once at plan
// time via internal/model.Load, the plan embeds the coefficients and
// a modelDep {catalog table pointer, version}, and planSource.valid
// checks it alongside the table versions — retraining (or hand-editing
// madlib_models, which is an ordinary table) invalidates every cached
// plan that froze the old model. Scoring lowers onto the batch lane as
// a fused dot-product kernel over float64 feature lanes with the
// model's link function (sigmoid for logregr and sgd:logistic,
// identity otherwise) applied per batch; when a feature expression has
// no batch lowering, a compiled row closure runs the identical
// float-op sequence, so the two lanes agree bitwise. EXPLAIN prints
// each frozen model and its scoring lane (with the fallback reason),
// EXPLAIN ANALYZE adds a rows-scored delta, and the predict_rows /
// predict_batches counters land in the metrics registry.
//
// # Cancellation
//
// Every entry point has a context-threaded form — ExecContext,
// QueryContext, RunContext, ExecutePreparedContext — and the plain
// forms delegate to them with context.Background(). The context flows
// through the compiled plan's execEnv into the engine's ...Ctx drivers,
// which poll ctx.Err() at morsel boundaries: a scan stops within one
// morsel (engine.MorselRows = 4096 rows) of cancellation, partial
// per-morsel states are discarded, and the statement returns the
// context's error (context.Canceled or DeadlineExceeded) instead of
// results. rows_scanned only advances for completed morsels, so the
// engine's scan counters stay exact under cancellation; a table-valued
// madlib call's staged input is such a scan. The one phase that is not
// morsel-driven, the join build, checks the context at segment
// boundaries instead.
// Cancellation is cooperative and cheap (one atomic load per morsel),
// so leaving the plain forms on Background costs nothing.
//
// This is what makes the statement a unit of interruption for callers:
// internal/pgwire maps a dropped client connection, a wire-protocol
// CancelRequest and the server's statement timeout onto one context
// cancel per active statement (surfaced to clients as SQLSTATE 57014),
// and a cancelled statement leaves the session reusable — prepared
// statements, plan cache and catalog bindings are untouched.
//
// Sessions are safe for concurrent use, and many Sessions may share
// one engine.DB. Data consistency across concurrent statements comes
// from the engine's per-table reader/writer latches (scan drivers hold
// a shared latch for the whole scan; Insert, AppendColumns, Truncate and
// UpdateInt hold it exclusively), so a wire server can run a session pool
// against one shared database without torn reads.
//
// # Testing
//
// Behavior is pinned three ways: the golden-file SQL logic tests
// (internal/sql/logictest, a sqllogictest-dialect runner over
// testdata/*.slt — see its README for adding cases), the row-vs-batch
// differential harness (batch_diff_test.go), and FuzzParse (seeded from
// the logictest corpus; asserts the parser never panics and that
// String()-rendered SELECTs re-parse to a fixed point).
//
// # Not yet supported
//
// Multi-way (>2 table) joins, subqueries and UPDATE/DELETE are tracked
// as ROADMAP open items. (The Postgres wire protocol is served by
// internal/pgwire via `madlib serve`.)
package sql
