package sql

import (
	"log/slog"
	"time"

	"madlib/internal/metrics"
)

// This file is the session side of the observability layer (PR 6):
// plan-cache / lane / join-cache counters registered in the engine
// database's metrics registry, a small ring buffer of recently executed
// statements (the madlib_stats_queries system view), and the opt-in
// structured slow-query log.

// recentQueryCap bounds the per-session ring buffer backing the
// madlib_stats_queries system view.
const recentQueryCap = 32

// sessionMetrics holds the session's pre-resolved counters. All sessions
// over one database share the counters (they live in the database's
// registry), so madlib_stats_counters reports database-wide totals.
type sessionMetrics struct {
	reg *metrics.Registry

	queries       *metrics.Counter // statements executed (SELECT/INSERT/EXECUTE)
	planHits      *metrics.Counter // executions served by the plan cache
	planMisses    *metrics.Counter // plans compiled and inserted into the cache
	planEvictions *metrics.Counter // plans displaced (LRU, staleness at lookup)
	planInvalid   *metrics.Counter // plans a DDL statement made stale
	replans       *metrics.Counter // prepared statements replanned after going stale
	joinHits      *metrics.Counter // join materialization cache hits
	joinMisses    *metrics.Counter // join materialization cache misses (rebuilds)
	slowQueries   *metrics.Counter // statements at or over the slow-query threshold
}

func newSessionMetrics(reg *metrics.Registry) *sessionMetrics {
	return &sessionMetrics{
		reg:           reg,
		queries:       reg.Counter("sql_queries"),
		planHits:      reg.Counter("sql_plan_cache_hits"),
		planMisses:    reg.Counter("sql_plan_cache_misses"),
		planEvictions: reg.Counter("sql_plan_cache_evictions"),
		planInvalid:   reg.Counter("sql_plan_invalidations"),
		replans:       reg.Counter("sql_replans"),
		joinHits:      reg.Counter("sql_join_cache_hits"),
		joinMisses:    reg.Counter("sql_join_cache_misses"),
		slowQueries:   reg.Counter("sql_slow_queries"),
	}
}

// lanePicked counts one planner lane decision (sql_lane_row,
// sql_lane_batch, sql_lane_fused). Called at plan time, where a registry
// lookup is noise next to expression compilation.
func (m *sessionMetrics) lanePicked(lane string) {
	m.reg.Counter("sql_lane_" + lane).Inc()
}

// topnPruned counts the scan rows a top-N cut dropped before they were
// gathered (sql_topn_rows_pruned), registered by the first statement
// that drops any.
func (m *sessionMetrics) topnPruned(n int64) {
	if n > 0 {
		m.reg.Counter("sql_topn_rows_pruned").Add(n)
	}
}

// planLane names how a plan's consumers lowered. Scans, aggregates and
// windows report batch (fused for the single-pass filter+aggregate) when
// any consumer took a native kernel and row when all run row closures;
// the remaining plan types are pinned to their only lane.
func planLane(pl stmtPlan) string {
	switch p := pl.(type) {
	case *scanPlan:
		if p.nativePred || p.nativeItems > 0 {
			return "batch"
		}
		return "row"
	case *aggPlan:
		switch {
		case p.lane.fused != nil:
			return "fused"
		case p.lane.native:
			return "batch"
		}
		return "row"
	case *windowPlan:
		if p.native {
			return "batch"
		}
		return "row"
	case *tvPlan:
		return "function"
	case *constPlan:
		return "const"
	case *insertPlan:
		return "insert"
	}
	return "unknown"
}

// QueryStat is one executed statement's record in the session's recent
// ring (the madlib_stats_queries system view) and in the slow-query log.
type QueryStat struct {
	Text     string
	Lane     string
	Rows     int
	Duration time.Duration
	CacheHit bool
}

// SetQueryLog enables (logger non-nil) or disables (nil) the structured
// query log: every statement whose total wall time reaches slowerThan is
// emitted through logger with its text, duration, lane, row count and
// cache flag. slowerThan of 0 logs every statement.
func (s *Session) SetQueryLog(logger *slog.Logger, slowerThan time.Duration) {
	s.mu.Lock()
	s.logger = logger
	s.slowThan = slowerThan
	s.mu.Unlock()
}

// RecentQueries returns the session's most recently executed statements,
// newest first (at most recentQueryCap).
func (s *Session) RecentQueries() []QueryStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryStat, 0, len(s.recent))
	for i := len(s.recent) - 1; i >= 0; i-- {
		out = append(out, s.recent[(s.recentNext+i)%len(s.recent)])
	}
	return out
}

// observe records one executed statement: bumps the query counter,
// appends to the recent ring, and emits the slow-query log line when the
// statement crossed the threshold.
func (s *Session) observe(text string, pl stmtPlan, rs *RowSet, tm Timing) {
	s.metrics.queries.Inc()
	qs := QueryStat{
		Text:     text,
		Lane:     planLane(pl),
		Duration: tm.Total(),
		CacheHit: tm.CacheHit,
	}
	if rs != nil {
		qs.Rows = rs.n
	}
	s.mu.Lock()
	if len(s.recent) < recentQueryCap {
		s.recent = append(s.recent, qs)
		s.recentNext = 0
	} else {
		s.recent[s.recentNext] = qs
		s.recentNext = (s.recentNext + 1) % recentQueryCap
	}
	logger, slowThan := s.logger, s.slowThan
	s.mu.Unlock()
	if logger != nil && qs.Duration >= slowThan {
		s.metrics.slowQueries.Inc()
		logger.Info("slow query",
			slog.String("query", qs.Text),
			slog.Duration("duration", qs.Duration),
			slog.String("lane", qs.Lane),
			slog.Int("rows", qs.Rows),
			slog.Bool("cache_hit", qs.CacheHit),
		)
	}
}
