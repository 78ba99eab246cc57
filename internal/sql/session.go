package sql

import (
	"container/list"
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"madlib/internal/engine"
)

// planCacheSize bounds the per-session plan cache (LRU eviction).
const planCacheSize = 256

// Timing breaks one statement's wall time into the pipeline phases. The
// point of the plan cache is that Parse and Plan collapse to zero on
// repeated statements; \timing in the REPL prints this breakdown.
type Timing struct {
	Parse time.Duration
	Plan  time.Duration
	Exec  time.Duration
	// CacheHit reports whether a cached or prepared plan was reused.
	CacheHit bool
}

// Total returns the summed phase time.
func (t Timing) Total() time.Duration { return t.Parse + t.Plan + t.Exec }

// Prepared is one PREPARE'd statement of a session.
type Prepared struct {
	// Name is the statement's name (lowercased).
	Name string
	// Text is the inner statement's SQL source.
	Text string
	// NumParams is the number of $n parameters EXECUTE must supply.
	NumParams int

	stmt Statement
	plan stmtPlan
}

// cacheEntry is one LRU plan-cache slot.
type cacheEntry struct {
	key  string
	plan stmtPlan
}

// planCache is a text-keyed LRU of statement plans.
type planCache struct {
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*list.Element), order: list.New()}
}

func (c *planCache) get(key string) (stmtPlan, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// put stores a plan and returns the number of plans it evicted (0 or 1).
func (c *planCache) put(key string, plan stmtPlan) int {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, plan: plan})
	if c.order.Len() <= planCacheSize {
		return 0
	}
	c.remove(c.order.Back())
	return 1
}

// remove evicts one entry.
func (c *planCache) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
}

// prune evicts every plan that is no longer valid against db, returning
// how many it evicted.
func (c *planCache) prune(db *engine.DB) int {
	n := 0
	for _, el := range c.entries {
		if !el.Value.(*cacheEntry).plan.valid(db) {
			c.remove(el)
			n++
		}
	}
	return n
}

// clear drops every entry.
func (c *planCache) clear() {
	c.entries = make(map[string]*list.Element)
	c.order.Init()
}

// Session executes SQL against an engine database. A session owns a
// text-keyed LRU plan cache and the statements created with PREPARE, so
// repeated statements skip parsing and planning entirely. Plans own no
// storage: a join's materialization lives in the engine's join cache,
// shared by every session over the database. DDL evicts the cached plans
// it made stale, and every plan revalidates its table bindings before
// running, so even DDL issued through another session cannot make it
// execute stale. Sessions are safe for concurrent use.
type Session struct {
	db *engine.DB
	// metrics are the session's observability counters; they live in the
	// database's registry, so all sessions over one database share them.
	metrics *sessionMetrics

	mu       sync.Mutex
	plans    *planCache
	prepared map[string]*Prepared
	last     Timing
	batchOff bool
	// Structured query log (SetQueryLog) and the recent-statement ring
	// backing the madlib_stats_queries system view.
	logger     *slog.Logger
	slowThan   time.Duration
	recent     []QueryStat
	recentNext int
}

// NewSession wraps an engine database with the SQL front-end.
func NewSession(db *engine.DB) *Session {
	return &Session{
		db:       db,
		metrics:  newSessionMetrics(db.Metrics()),
		plans:    newPlanCache(),
		prepared: make(map[string]*Prepared),
	}
}

// DB returns the underlying engine database.
func (s *Session) DB() *engine.DB { return s.db }

// Close empties the session's plan cache and prepared-statement store.
// The session stays usable afterwards: Close only clears its caches.
func (s *Session) Close() {
	s.mu.Lock()
	s.plans.clear()
	s.prepared = make(map[string]*Prepared)
	s.mu.Unlock()
}

// SetBatchExecution toggles the native batch kernels. They are on by
// default; turning them off is the oracle mode: every plan still runs on
// its one batch executor, but each consumer in it (WHERE, projected
// items, aggregate folds, group keys) lowers to its compiled row closure
// instead of a column kernel. The differential tests compare the two
// lowerings and the *RowLane benchmarks time the closures. Toggling
// clears the plan cache and marks prepared statements for replanning, so
// no cached or prepared plan can keep the previous lowering.
func (s *Session) SetBatchExecution(enabled bool) {
	s.mu.Lock()
	s.batchOff = !enabled
	s.plans.clear()
	for _, p := range s.prepared {
		p.plan = nil
	}
	s.mu.Unlock()
}

// batchEnabled reports whether consumers may lower to native batch
// kernels (false: oracle mode).
func (s *Session) batchEnabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.batchOff
}

// LastTiming returns the phase breakdown of the most recently executed
// statement (for a multi-statement Exec, the batch's totals with the
// cache-hit flag of its last statement).
func (s *Session) LastTiming() Timing {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

func (s *Session) setTiming(t Timing) {
	s.mu.Lock()
	s.last = t
	s.mu.Unlock()
}

// cachedPlan returns a still-valid cached plan for the statement text.
// Stale plans (table dropped or re-created since planning) are evicted.
func (s *Session) cachedPlan(text string) (stmtPlan, bool) {
	s.mu.Lock()
	pl, ok := s.plans.get(text)
	stale := ok && !pl.valid(s.db)
	if stale {
		s.plans.remove(s.plans.entries[text])
	}
	s.mu.Unlock()
	switch {
	case stale:
		s.metrics.planEvictions.Inc()
		return nil, false
	case ok:
		s.metrics.planHits.Inc()
	}
	return pl, ok
}

func (s *Session) cachePlan(text string, pl stmtPlan) {
	s.mu.Lock()
	evicted := s.plans.put(text, pl)
	s.mu.Unlock()
	s.metrics.planMisses.Inc()
	s.metrics.planEvictions.Add(int64(evicted))
}

// invalidatePlans evicts the cached plans a DDL statement made stale;
// called after the DDL ran. Plans over other tables stay cached, and
// prepared statements replan on demand when their bindings go stale,
// like PostgreSQL's.
func (s *Session) invalidatePlans() {
	s.mu.Lock()
	n := s.plans.prune(s.db)
	s.mu.Unlock()
	s.metrics.planInvalid.Add(int64(n))
}

// Exec parses and runs every statement in text, returning one Result per
// statement. Execution stops at the first error; already-completed
// results are returned alongside it. Single-statement texts hit the plan
// cache: the second execution of the same SELECT/INSERT skips parse and
// plan entirely.
func (s *Session) Exec(text string) ([]*Result, error) {
	return s.ExecContext(context.Background(), text)
}

// ExecContext is Exec under a context: cancellation or deadline expiry
// stops running scans at morsel boundaries and aborts the remaining
// statements.
func (s *Session) ExecContext(ctx context.Context, text string) ([]*Result, error) {
	sets, err := s.ExecRowSets(ctx, text)
	var out []*Result
	for _, rs := range sets {
		out = append(out, rs.Result())
	}
	return out, err
}

// ExecRowSets is ExecContext for callers that consume the executor's
// typed result chunks themselves (the wire server) instead of having
// them boxed into Result.Rows.
func (s *Session) ExecRowSets(ctx context.Context, text string) ([]*RowSet, error) {
	t0 := time.Now()
	if pl, ok := s.cachedPlan(text); ok {
		rs, err := pl.exec(s, &execEnv{ctx: ctx})
		tm := Timing{Exec: time.Since(t0), CacheHit: true}
		s.setTiming(tm)
		if err != nil {
			return nil, err
		}
		s.observe(text, pl, rs, tm)
		return []*RowSet{rs}, nil
	}
	stmts, err := Parse(text)
	if err != nil {
		return nil, err
	}
	parseD := time.Since(t0)
	cacheKey := ""
	if len(stmts) == 1 {
		cacheKey = text
	}
	var out []*RowSet
	total := Timing{Parse: parseD}
	for _, st := range stmts {
		rs, tm, err := s.runTimed(ctx, st, cacheKey)
		total.Plan += tm.Plan
		total.Exec += tm.Exec
		total.CacheHit = tm.CacheHit
		if err != nil {
			s.setTiming(total)
			return out, err
		}
		out = append(out, rs)
	}
	s.setTiming(total)
	return out, nil
}

// Query runs a single statement and requires it to produce a rowset.
func (s *Session) Query(text string) (*Result, error) {
	return s.QueryContext(context.Background(), text)
}

// QueryContext is Query under a context (see ExecContext).
func (s *Session) QueryContext(ctx context.Context, text string) (*Result, error) {
	t0 := time.Now()
	if pl, ok := s.cachedPlan(text); ok {
		rs, err := pl.exec(s, &execEnv{ctx: ctx})
		tm := Timing{Exec: time.Since(t0), CacheHit: true}
		s.setTiming(tm)
		if err != nil {
			return nil, err
		}
		s.observe(text, pl, rs, tm)
		if len(rs.Cols) == 0 {
			return nil, ErrNoRows
		}
		return rs.Result(), nil
	}
	st, err := ParseStatement(text)
	if err != nil {
		return nil, err
	}
	parseD := time.Since(t0)
	rs, tm, err := s.runTimed(ctx, st, text)
	tm.Parse = parseD
	s.setTiming(tm)
	if err != nil {
		return nil, err
	}
	if len(rs.Cols) == 0 {
		return nil, ErrNoRows
	}
	return rs.Result(), nil
}

// Run executes one parsed statement. Statements run this way are planned
// fresh (there is no source text to cache under); prepared statements and
// EXECUTE still work.
func (s *Session) Run(st Statement) (*Result, error) {
	return s.RunContext(context.Background(), st)
}

// RunContext is Run under a context (see ExecContext).
func (s *Session) RunContext(ctx context.Context, st Statement) (*Result, error) {
	rs, err := s.RunRowSet(ctx, st)
	if err != nil {
		return nil, err
	}
	return rs.Result(), nil
}

// RunRowSet is RunContext without the boxing (see ExecRowSets).
func (s *Session) RunRowSet(ctx context.Context, st Statement) (*RowSet, error) {
	rs, tm, err := s.runTimed(ctx, st, "")
	s.setTiming(tm)
	return rs, err
}

// runTimed plans (or reuses) and executes one statement, reporting the
// plan/exec phase split. cacheKey, when non-empty, is the statement's
// exact source text and enables plan caching for SELECT/INSERT.
func (s *Session) runTimed(ctx context.Context, st Statement, cacheKey string) (*RowSet, Timing, error) {
	t0 := time.Now()
	var tm Timing
	switch x := st.(type) {
	case *CreateTable:
		r, err := s.execCreate(x)
		s.invalidatePlans()
		tm.Exec = time.Since(t0)
		return r, tm, err
	case *CreateTableAs:
		r, err := s.execCreateTableAs(x)
		s.invalidatePlans()
		tm.Exec = time.Since(t0)
		return r, tm, err
	case *DropTable:
		r, err := s.execDrop(x)
		s.invalidatePlans()
		tm.Exec = time.Since(t0)
		return r, tm, err
	case *Prepare:
		r, err := s.execPrepare(x)
		tm.Plan = time.Since(t0)
		return r, tm, err
	case *Execute:
		return s.execExecute(ctx, x)
	case *Deallocate:
		r, err := s.execDeallocate(x)
		tm.Exec = time.Since(t0)
		return r, tm, err
	case *Explain:
		return s.execExplain(x)
	case *Select, *Insert:
		if n := stmtMaxParam(st); n > 0 {
			return nil, tm, execErrf("query uses parameter $%d; bind values with PREPARE ... / EXECUTE", n)
		}
		pl, err := s.planStmt(st)
		if err != nil {
			return nil, tm, err
		}
		tm.Plan = time.Since(t0)
		if cacheKey != "" {
			s.cachePlan(cacheKey, pl)
		}
		tExec := time.Now()
		r, err := pl.exec(s, &execEnv{ctx: ctx})
		tm.Exec = time.Since(tExec)
		if err == nil {
			text := cacheKey
			if text == "" {
				text = st.String()
			}
			s.observe(text, pl, r, tm)
		}
		return r, tm, err
	}
	return nil, tm, execErrf("unsupported statement %T", st)
}

// execPrepare plans the inner statement and stores it under its name.
func (s *Session) execPrepare(st *Prepare) (*RowSet, error) {
	pl, err := s.planStmt(st.Stmt)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		Name:      st.Name,
		Text:      st.Text,
		NumParams: stmtMaxParam(st.Stmt),
		stmt:      st.Stmt,
		plan:      pl,
	}
	// Check-and-store under one critical section, so concurrent PREPAREs
	// of the same name cannot both succeed.
	s.mu.Lock()
	_, dup := s.prepared[st.Name]
	if !dup {
		s.prepared[st.Name] = p
	}
	s.mu.Unlock()
	if dup {
		return nil, execErrf("prepared statement %q already exists", st.Name)
	}
	return &RowSet{Tag: "PREPARE"}, nil
}

// execExecute runs a prepared statement with bound parameter values. If
// the plan's table bindings went stale (DROP + re-CREATE since PREPARE),
// the statement is replanned against the current catalog first.
func (s *Session) execExecute(ctx context.Context, st *Execute) (*RowSet, Timing, error) {
	var tm Timing
	params := make([]any, len(st.Args))
	for i, a := range st.Args {
		v, err := evalConst(a)
		if err != nil {
			return nil, tm, execErrf("EXECUTE parameter $%d: %v", i+1, err)
		}
		params[i] = v
	}
	return s.executePrepared(ctx, st.Name, params, st.String())
}

// ExecutePreparedContext runs a prepared statement with already-evaluated
// parameter values — the extended-query protocol's Bind/Execute path,
// where parameters arrive as wire values rather than SQL expressions.
func (s *Session) ExecutePreparedContext(ctx context.Context, name string, params []any) (*Result, error) {
	rs, err := s.ExecutePreparedRowSet(ctx, name, params)
	if err != nil {
		return nil, err
	}
	return rs.Result(), nil
}

// ExecutePreparedRowSet is ExecutePreparedContext without the boxing
// (see ExecRowSets).
func (s *Session) ExecutePreparedRowSet(ctx context.Context, name string, params []any) (*RowSet, error) {
	rs, tm, err := s.executePrepared(ctx, name, params, "EXECUTE "+name)
	s.setTiming(tm)
	return rs, err
}

func (s *Session) executePrepared(ctx context.Context, name string, params []any, obsText string) (*RowSet, Timing, error) {
	var tm Timing
	s.mu.Lock()
	p, ok := s.prepared[name]
	var pl stmtPlan
	if ok {
		pl = p.plan
	}
	s.mu.Unlock()
	if !ok {
		return nil, tm, execErrf("prepared statement %q does not exist", name)
	}
	if len(params) != p.NumParams {
		return nil, tm, execErrf("wrong number of parameters for prepared statement %q: want %d, got %d",
			p.Name, p.NumParams, len(params))
	}
	t0 := time.Now()
	tm.CacheHit = true
	if pl == nil || !pl.valid(s.db) {
		var err error
		pl, err = s.planStmt(p.stmt)
		if err != nil {
			return nil, tm, err
		}
		s.mu.Lock()
		p.plan = pl
		s.mu.Unlock()
		tm.CacheHit = false
		s.metrics.replans.Inc()
	}
	tm.Plan = time.Since(t0)
	tExec := time.Now()
	r, err := pl.exec(s, &execEnv{params: params, ctx: ctx})
	tm.Exec = time.Since(tExec)
	if err == nil {
		s.observe(obsText, pl, r, tm)
	}
	return r, tm, err
}

// DescribePrepared reports a prepared statement's parameter count, its
// output column names (nil for statements that return no rows) and
// their SQL type names from the plan's static kinds ("unknown" where
// only the values tell; see RowSet.ColumnTypes) — the metadata the
// extended-query protocol's Describe message needs for
// ParameterDescription and RowDescription.
func (s *Session) DescribePrepared(name string) (numParams int, cols, types []string, err error) {
	s.mu.Lock()
	p, ok := s.prepared[name]
	var pl stmtPlan
	if ok {
		pl = p.plan
		numParams = p.NumParams
	}
	s.mu.Unlock()
	if !ok {
		return 0, nil, nil, execErrf("prepared statement %q does not exist", name)
	}
	if pl != nil {
		rs := RowSet{Cols: pl.columns(), kinds: pl.kinds()}
		cols, types = rs.Cols, rs.ColumnTypes()
	}
	return numParams, cols, types, nil
}

func (s *Session) execDeallocate(st *Deallocate) (*RowSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.All {
		s.prepared = make(map[string]*Prepared)
		return &RowSet{Tag: "DEALLOCATE ALL"}, nil
	}
	if _, ok := s.prepared[st.Name]; !ok {
		return nil, execErrf("prepared statement %q does not exist", st.Name)
	}
	delete(s.prepared, st.Name)
	return &RowSet{Tag: "DEALLOCATE"}, nil
}

// PreparedStatements lists the session's prepared statements sorted by
// name (for the REPL's \prepare).
func (s *Session) PreparedStatements() []Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Prepared, 0, len(s.prepared))
	for _, p := range s.prepared {
		out = append(out, Prepared{Name: p.Name, Text: p.Text, NumParams: p.NumParams})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
