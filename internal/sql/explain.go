package sql

import (
	"fmt"
	"strings"
	"time"

	"madlib/internal/engine"
	"madlib/internal/model"
)

// EXPLAIN renders the plan the session would run for a statement as a
// one-column rowset (QUERY PLAN), one line per row: the operator tree,
// how its consumers lowered (the lane line: batch or fused when any of
// them took a native kernel, row when every one runs its row closure —
// the executor underneath is the same either way), the
// parallel-vs-sequential morsel decision, join materialization cache
// state and plan-cache status. EXPLAIN ANALYZE additionally executes the
// statement (including INSERTs — like PostgreSQL, analyze runs the real
// thing) and appends actual row counts, the rows-scanned delta from the
// engine counters, and the parse/plan/exec wall-time split that the
// REPL's \timing shows.

func (s *Session) execExplain(st *Explain) (*RowSet, Timing, error) {
	var tm Timing
	if n := stmtMaxParam(st.Stmt); n > 0 {
		return nil, tm, execErrf("EXPLAIN: query uses parameter $%d; bind values with PREPARE ... / EXECUTE", n)
	}
	// Probe the plan cache under the inner statement's source text: if
	// the session already executed exactly this statement, EXPLAIN
	// reports on (and with ANALYZE runs) the very plan that is cached.
	// Fresh plans are not inserted — explaining a statement must not
	// evict working plans.
	t0 := time.Now()
	pl, cached := s.cachedPlan(st.Text)
	if !cached {
		var err error
		pl, err = s.planStmt(st.Stmt)
		if err != nil {
			return nil, tm, err
		}
	}
	planD := time.Since(t0)
	tm.Plan = planD

	lines := explainLines(s, pl)
	if cached {
		lines = append(lines, "plan: cached")
	} else {
		lines = append(lines, "plan: not cached")
	}

	if st.Analyze {
		// Re-parse the inner text so the report carries the same
		// parse/plan/exec split as \timing (the original parse happened
		// as part of the EXPLAIN statement itself).
		pt0 := time.Now()
		_, _ = Parse(st.Text)
		parseD := time.Since(pt0)
		scanned0 := s.db.RowsScanned()
		scored0 := s.db.Metrics().Counter("predict_rows").Value()
		tExec := time.Now()
		r, err := pl.exec(s, nil)
		execD := time.Since(tExec)
		tm.Exec = execD
		if err != nil {
			return nil, tm, err
		}
		lines = append(lines,
			fmt.Sprintf("actual rows: %d", r.n),
			fmt.Sprintf("rows scanned: %d", s.db.RowsScanned()-scanned0))
		if len(planModelDeps(pl)) > 0 {
			lines = append(lines, fmt.Sprintf("rows scored: %d", s.db.Metrics().Counter("predict_rows").Value()-scored0))
		}
		lines = append(lines,
			fmt.Sprintf("Parse Time: %s", fmtMillis(parseD)),
			fmt.Sprintf("Planning Time: %s", fmtMillis(planD)),
			fmt.Sprintf("Execution Time: %s", fmtMillis(execD)),
		)
	}
	rs := newRowSet([]string{"QUERY PLAN"}, []ckind{ckStr}, Chunk{n: len(lines), cols: []chunkCol{{kind: ckStr, strs: lines}}})
	rs.Tag = "EXPLAIN"
	return rs, tm, nil
}

func fmtMillis(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

// explainLines renders one plan as indented text lines.
func explainLines(s *Session, pl stmtPlan) []string {
	switch p := pl.(type) {
	case *scanPlan:
		lines := []string{sourceTitle(s, p.src)}
		lane := "row"
		switch {
		case p.nativePred && p.nativeItems > 0:
			lane = "batch (vectorized filter + columnar projection)"
		case p.nativePred:
			lane = "batch (vectorized filter)"
		case p.nativeItems > 0:
			lane = "batch (columnar projection)"
		}
		lines = append(lines, "  lane: "+lane)
		lines = append(lines, predictLines(p.src, "  ")...)
		if p.whereText != "" {
			lines = append(lines, "  filter: "+p.whereText)
		}
		if p.distinct {
			lines = append(lines, "  distinct: true")
		}
		lines = append(lines, p.order.explain()...)
		return append(lines, sourceDetail(s, p.src, "  ")...)
	case *aggPlan:
		head := "Aggregate"
		if len(p.groupIdx) > 0 {
			head = fmt.Sprintf("HashAggregate (group by %s)", strings.Join(p.st.GroupBy, ", "))
		}
		lines := []string{head}
		calls := make([]string, len(p.calls))
		for i, c := range p.calls {
			calls[i] = c.String()
		}
		lines = append(lines, "  aggregates: "+strings.Join(calls, ", "))
		lane := "row"
		switch {
		case p.lane.fused != nil:
			lane = "fused (single-pass filter+aggregate)"
		case p.lane.native:
			lane = "batch (vectorized)"
		}
		lines = append(lines, "  lane: "+lane)
		lines = append(lines, predictLines(p.src, "  ")...)
		if p.st.Having != nil {
			lines = append(lines, "  having: "+p.st.Having.String())
		}
		lines = append(lines, p.order.explain()...)
		lines = append(lines, "  "+sourceTitle(s, p.src))
		if p.st.Where != nil {
			lines = append(lines, "    filter: "+p.st.Where.String())
		}
		return append(lines, sourceDetail(s, p.src, "    ")...)
	case *windowPlan:
		lines := []string{"WindowAgg"}
		names := make([]string, len(p.specs))
		for i, spec := range p.specs {
			names[i] = spec.name
		}
		lane := "row (gather and fold per partition)"
		if p.native {
			lane = "batch (vectorized gather, row-lane fold)"
		}
		lines = append(lines,
			"  window functions: "+strings.Join(names, ", "),
			"  lane: "+lane)
		lines = append(lines, predictLines(p.src, "  ")...)
		lines = append(lines, p.order.explain()...)
		lines = append(lines, "  "+sourceTitle(s, p.src))
		if p.st.Where != nil {
			lines = append(lines, "    filter: "+p.st.Where.String())
		}
		return append(lines, sourceDetail(s, p.src, "    ")...)
	case *tvPlan:
		lines := []string{"Function Scan on madlib." + p.call.Name, "  lane: row (driver function)"}
		if p.stage == nil {
			lines = append(lines, "  "+sourceTitle(s, p.src))
			return append(lines, sourceDetail(s, p.src, "    ")...)
		}
		for _, l := range explainLines(s, p.stage) {
			lines = append(lines, "  "+l)
		}
		return lines
	case *constPlan:
		return []string{"Result (constant expressions)"}
	case *insertPlan:
		return []string{fmt.Sprintf("Insert on %s (%d rows)", p.name, len(p.rows))}
	}
	return []string{fmt.Sprintf("plan: %T", pl)}
}

// predictLines renders the models a plan froze at compile time and the
// scoring lane each one landed on, with the fallback reason when the
// batch kernel could not be built.
func predictLines(ps *planSource, pad string) []string {
	var lines []string
	for _, dep := range ps.models {
		_, link := model.Link(dep.m.Kind)
		lines = append(lines, fmt.Sprintf("%spredict: model %q v%d (%s, %d features, link=%s)",
			pad, dep.m.Name, dep.m.Version, dep.m.Kind, len(dep.m.Coef), link))
		switch {
		case dep.batch:
			lines = append(lines, pad+"  scoring: batch kernel (fused dot product over feature lanes)")
		case dep.reason != "":
			lines = append(lines, pad+"  scoring: row fallback ("+dep.reason+")")
		default:
			lines = append(lines, pad+"  scoring: row fallback (batch lane not planned)")
		}
	}
	return lines
}

// planModelDeps returns the model dependencies of a plan, if its shape
// can carry any.
func planModelDeps(pl stmtPlan) []*modelDep {
	switch p := pl.(type) {
	case *scanPlan:
		return p.src.models
	case *aggPlan:
		return p.src.models
	case *windowPlan:
		return p.src.models
	}
	return nil
}

// sourceTitle is a planSource's operator line: a sequential scan, a hash
// join, or a system-view snapshot.
func sourceTitle(s *Session, ps *planSource) string {
	if ps.virtual {
		return "System View " + ps.name
	}
	if j := ps.join; j != nil {
		kind := "Hash Join"
		if j.outer {
			kind = "Left Hash Join"
		}
		return fmt.Sprintf("%s (%s.%s = %s.%s)", kind, j.leftName, j.leftKey, j.rightName, j.rightKey)
	}
	return fmt.Sprintf("Seq Scan on %s (%d segments, %d rows)",
		ps.name, len(ps.table.Segments()), ps.table.Count())
}

// sourceDetail renders a planSource's cache and parallelism decisions,
// each line prefixed with pad.
func sourceDetail(s *Session, ps *planSource, pad string) []string {
	if ps.virtual {
		return []string{pad + "execution: snapshot (materialized per execution)"}
	}
	j := ps.join
	if j == nil {
		return []string{pad + executionLine(s, ps.table)}
	}
	cacheLine := "join cache: miss (build + probe at execution)"
	if s.db.JoinCached(j.left, j.leftKey, j.right, j.rightKey, j.outer) {
		cacheLine = "join cache: hit (reusing materialized result)"
	}
	return []string{
		pad + cacheLine,
		pad + fmt.Sprintf("build: %s (%d rows)", j.rightName, j.right.Count()),
		pad + fmt.Sprintf("probe: %s (%d rows)", j.leftName, j.left.Count()),
		pad + executionLine(s, j.left),
	}
}

// executionLine reports the morsel-parallel decision the engine would
// make for a scan of t right now.
func executionLine(s *Session, t *engine.Table) string {
	if w := s.db.ScanWorkers(t); w > 1 {
		return fmt.Sprintf("execution: parallel (%d workers over %d morsels)", w, s.db.ScanMorsels(t))
	}
	if t.Count() < engine.ParallelRowThreshold {
		return fmt.Sprintf("execution: sequential (%d rows < parallel threshold %d)",
			t.Count(), engine.ParallelRowThreshold)
	}
	return "execution: sequential (GOMAXPROCS=1 or single segment)"
}
