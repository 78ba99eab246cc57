package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	sqlfe "madlib/internal/sql"
)

// span is one interval at a layer boundary, recorded from the benchmark's
// side of the call. Spans of one statement share Stmt; Parent is the index
// of the enclosing span in the file, -1 for a root.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	Stmt   int64
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	round int
	spans []span
}

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// stmtID identifies a statement of the schedule: the wire span of a timed
// round and the ladder spans that replay the same statement share it.
func stmtID(round, conn, op, stmt int) int64 {
	return int64(round)<<40 | int64(conn)<<32 | int64(op)<<4 | int64(stmt)
}

// write stores the spans as JSON lines, times in ns since the first span.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var epoch time.Time
	if len(l.spans) > 0 {
		epoch = l.spans[0].Start
	}
	for _, s := range l.spans {
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Parent  int    `json:"parent"`
			Stmt    int64  `json:"stmt_id"`
		}{s.Name, s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds(), s.Parent, s.Stmt}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer owns a traced run: the span log of the timed phase, then the
// ladder, the EXPLAIN ANALYZE cross-check and the layer probes.
type tracer struct {
	w      *workload
	e      *env
	seed   int64
	scale  int
	outDir string
	log    spanLog
}

// tracedRound reports whether a round of a traced run records spans. Rounds 2k
// and 2k+1 play the same schedule, one of them recording, and which comes
// first alternates with k: the two sides of trace.overhead_pct.
func tracedRound(round int) bool { return round%2 == (round/2)%2 }

func (t *tracer) spansFor(round int) *spanLog {
	if t == nil || !tracedRound(round) {
		return nil
	}
	t.log.round = round / 2
	return &t.log
}

// The ladder replays the start of round 0: at most ladderSampleOps
// operations, and no more once ladderBudget has passed.
const (
	ladderSampleOps = 400
	ladderBudget    = 3 * time.Second
)

// rungs holds what the ladder measured, in microseconds.
type rungs struct {
	lex, parse, planCold, planCached []float64
	exec                             [nClasses][]float64
	execSelf                         []float64
	simpleOver, extendedOver         []float64
	readSum                          []float64
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ladder replays the start of round 0 through the layers, one statement
// at a time on an otherwise idle server: sql.Lex, sql.Parse, a fresh
// Session (cold plan), a warm Session reading LastTiming, the direct
// engine or trainer call, and the wire round trip. A layer's self time is
// its rung minus the rung below.
func (t *tracer) ladder() (*rungs, error) {
	r := &rungs{}
	db, ctx := t.e.db, context.Background()
	warm := sqlfe.NewSession(db)
	defer warm.Close()
	for _, k := range t.w.kinds {
		if k.prepare != "" {
			if _, err := warm.Exec("PREPARE " + k.name + " AS " + k.prepare); err != nil {
				return nil, err
			}
		}
	}
	// run executes one statement on a session and returns the call's wall
	// time with the session's own phase split.
	run := func(s *sqlfe.Session, st *stmt, usePrepared bool) (time.Duration, sqlfe.Timing, error) {
		t0 := time.Now()
		var err error
		if usePrepared && st.prep != "" {
			_, err = s.ExecutePreparedContext(ctx, st.prep, st.args)
		} else {
			_, err = s.ExecContext(ctx, st.text)
		}
		return time.Since(t0), s.LastTiming(), err
	}

	ops := t.w.render(t.w.schedule(t.seed, 0))[0]
	start := time.Now()
	for i, op := range ops[:min(len(ops), ladderSampleOps)] {
		if time.Since(start) > ladderBudget {
			break
		}
		type timed struct {
			warmWall time.Duration
			warm     sqlfe.Timing
		}
		perStmt := make([]timed, len(op.stmts))
		// mark records a root span of this operation's j-th statement.
		mark := func(name string, j int, t0 time.Time, d time.Duration) int {
			return t.log.add(span{Name: name, Start: t0, End: t0.Add(d), Parent: -1, Stmt: stmtID(0, 0, i, j)})
		}
		cold := sqlfe.NewSession(db)
		for j := range op.stmts {
			st := &op.stmts[j]
			t0 := time.Now()
			_, tm, err := run(cold, st, false)
			if err != nil {
				return nil, fmt.Errorf("ladder, cold %s: %w", st.text, err)
			}
			if st.untimed {
				continue
			}
			id := stmtID(0, 0, i, j)
			root := mark("session.cold", j, t0, tm.Total())
			t.log.add(span{Name: "sql.parse", Start: t0, End: t0.Add(tm.Parse), Parent: root, Stmt: id})
			t.log.add(span{Name: "sql.plan", Start: t0.Add(tm.Parse), End: t0.Add(tm.Parse + tm.Plan), Parent: root, Stmt: id})
			t.log.add(span{Name: "sql.exec", Start: t0.Add(tm.Parse + tm.Plan), End: t0.Add(tm.Total()), Parent: root, Stmt: id})
			if tm.Plan > 0 {
				r.planCold = append(r.planCold, us(tm.Plan))
			}
		}
		cold.Close()
		for j := range op.stmts {
			st := &op.stmts[j]
			t0 := time.Now()
			wall, tm, err := run(warm, st, true)
			if err != nil {
				return nil, fmt.Errorf("ladder, warm %s: %w", st.text, err)
			}
			if st.untimed {
				continue
			}
			perStmt[j] = timed{wall, tm}
			mark("session.warm", j, t0, wall)
			r.exec[st.class] = append(r.exec[st.class], us(tm.Exec))
			if tm.CacheHit {
				r.planCached = append(r.planCached, us(wall-tm.Exec))
			}

			t0 = time.Now()
			if _, err := sqlfe.Lex(st.text); err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := sqlfe.Parse(st.text); err != nil {
				return nil, err
			}
			t2 := time.Now()
			mark("sql.Lex", j, t0, t1.Sub(t0))
			mark("sql.Parse", j, t1, t2.Sub(t1))
			r.lex = append(r.lex, us(t1.Sub(t0)))
			r.parse = append(r.parse, us(t2.Sub(t1)))
		}
		if direct := t.w.kinds[op.kind].direct; direct != nil {
			t0 := time.Now()
			if err := direct(db, op.arg); err != nil {
				return nil, fmt.Errorf("ladder, direct %s: %w", t.w.kinds[op.kind].name, err)
			}
			d := time.Since(t0)
			mark("engine.direct", 0, t0, d)
			r.execSelf = append(r.execSelf, us(perStmt[0].warm.Exec-d))
		}
		for j := range op.stmts {
			st := &op.stmts[j]
			t0 := time.Now()
			res, err := issue(t.e.conns[0], st)
			wire := time.Since(t0)
			if err == nil {
				err = st.want(res)
			}
			if err != nil {
				return nil, fmt.Errorf("ladder, wire %s: %w", st.text, err)
			}
			if st.untimed {
				continue
			}
			mark("wire.solo", j, t0, wire)
			over := us(wire - perStmt[j].warmWall)
			if st.prep != "" {
				r.extendedOver = append(r.extendedOver, over)
			} else {
				r.simpleOver = append(r.simpleOver, over)
			}
			if st.class == classRead {
				r.readSum = append(r.readSum, us(perStmt[j].warm.Total())+over)
			}
		}
	}
	return r, nil
}

var explainExecRE = regexp.MustCompile(`Execution Time: ([0-9.]+) ms`)

// explainRatio cross-checks the ladder against the program's own report:
// for the first statement of each SELECT kind it compares the Execution
// Time of EXPLAIN ANALYZE, asked for over the wire, with Timing.Exec of
// the same text in-process. It returns the median ratio.
func (t *tracer) explainRatio() (float64, error) {
	const reps = 5
	sess := sqlfe.NewSession(t.e.db)
	defer sess.Close()
	var ratios []float64
	ops := t.w.render(t.w.schedule(t.seed, 0))[0]
	done := map[int]bool{}
	for _, op := range ops {
		st := &op.stmts[0]
		if done[op.kind] || len(op.stmts) != 1 || st.class == classTrain || st.class == classWrite {
			continue
		}
		done[op.kind] = true
		var own, reported []float64
		for i := 0; i < reps; i++ {
			if _, err := sess.Exec(st.text); err != nil {
				return 0, err
			}
			own = append(own, float64(sess.LastTiming().Exec)/1e6)
			res, err := t.e.conns[0].Query("EXPLAIN ANALYZE " + st.text)
			if err != nil {
				return 0, fmt.Errorf("EXPLAIN ANALYZE %s: %w", st.text, err)
			}
			for _, row := range res.Rows {
				if m := explainExecRE.FindStringSubmatch(*row[0]); m != nil {
					ms, _ := strconv.ParseFloat(m[1], 64)
					reported = append(reported, ms)
				}
			}
		}
		if len(reported) != reps {
			return 0, fmt.Errorf("EXPLAIN ANALYZE %s: no Execution Time line", st.text)
		}
		ratio := median(reported) / median(own)
		if ratio < 0.8 || ratio > 1.25 {
			fmt.Printf("warning: %s: EXPLAIN ANALYZE reports %.3f ms of execution, Timing.Exec %.3f ms (ratio %.2f)\n",
				t.w.kinds[op.kind].name, median(reported), median(own), ratio)
		}
		ratios = append(ratios, ratio)
	}
	return median(ratios), nil
}

// layerMetrics is the traced report: counts taken across the timed phase,
// then the ladder, the cross-check and the probes, run after it on the
// idle server.
func (t *tracer) layerMetrics(s *summary, d *counters) ([]metric, error) {
	lad, err := t.ladder()
	if err != nil {
		return nil, err
	}
	explain, err := t.explainRatio()
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(t.seed, t.scale)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := t.log.write(filepath.Join(t.outDir, "trace-"+t.w.name+".jsonl")); err != nil {
		return nil, err
	}

	var overheads []float64
	for i := 0; i+1 < len(s.opsPerS); i += 2 {
		traced, plain := s.opsPerS[i], s.opsPerS[i+1]
		if !tracedRound(i) {
			traced, plain = plain, traced
		}
		overheads = append(overheads, 100*(plain-traced)/plain)
	}
	overhead := median(overheads)
	st := d.stats
	ops := float64(s.totalStmts)
	perRow := func(usPerStmt float64, rows int) float64 {
		if rows == 0 {
			return 0
		}
		return usPerStmt * 1e3 / float64(rows)
	}
	bulkRows, scoreRows := 0, 0
	if n := len(s.byClass[classBulk]); n > 0 {
		bulkRows = int(s.rowsByClass[classBulk]) / n
	}
	if s.totalScore > 0 {
		scoreRows = int(st["predict_rows"]) / s.totalScore
	}

	m := func(name string, v float64, unit string) metric { return metric{name: name, value: v, unit: unit} }
	out := []metric{
		m("pgwire.simple_overhead_us", median(lad.simpleOver), "us"),
		m("pgwire.extended_overhead_us", median(lad.extendedOver), "us"),
		m("pgwire.row_encode_ns_per_row", probes["pgwire.row_encode_ns_per_row"], "ns/row"),
		m("pgwire.connect_us", median(append(t.e.connectUS, probes["pgwire.connect_us"])), "us"),
		m("pgwire.queries", float64(st["pgwire_queries"]), "count"),
		m("pgwire.errors", float64(st["pgwire_errors"]), "count"),

		m("sql.lex_us", median(lad.lex), "us"),
		m("sql.parse_us", median(lad.parse), "us"),
		m("sql.plan_cold_us", median(lad.planCold), "us"),
		m("sql.plan_cached_us", median(lad.planCached), "us"),
		m("sql.plan_cache_hit_ratio", ratio(st["sql_plan_cache_hits"], st["sql_plan_cache_misses"]), "ratio"),
		m("sql.plan_evictions", float64(st["sql_plan_cache_evictions"]), "count"),
		m("sql.replans", float64(st["sql_replans"]), "count"),

		m("sql.exec_read_us", median(lad.exec[classRead]), "us"),
		m("sql.exec_write_us", median(lad.exec[classWrite]), "us"),
		m("sql.exec_bulk_us", median(lad.exec[classBulk]), "us"),
		m("sql.exec_train_us", median(lad.exec[classTrain]), "us"),
		m("sql.exec_score_us", median(lad.exec[classScore]), "us"),
		m("sql.exec_self_us", median(lad.execSelf), "us"),
		m("sql.bulk_exec_ns_per_row", perRow(median(lad.exec[classBulk]), bulkRows), "ns/row"),
		m("sql.predict_ns_per_row", perRow(median(lad.exec[classScore]), scoreRows), "ns/row"),
		m("sql.predict_rows", float64(st["predict_rows"]), "count"),
		m("sql.batch_lane_share", ratio(st["sql_lane_batch"]+st["sql_lane_fused"], st["sql_lane_row"]), "ratio"),
		m("sql.join_cache_hit_ratio", ratio(st["sql_join_cache_hits"], st["sql_join_cache_misses"]), "ratio"),
		m("sql.explain_exec_ratio", explain, "ratio"),

		m("engine.rows_scanned", float64(st["engine_rows_scanned"]), "count"),
		m("engine.morsels", float64(st["engine_morsels"]), "count"),
		m("engine.parallel_scan_share", ratio(st["engine_scans_parallel"], st["engine_scans_sequential"]), "ratio"),
		m("engine.rows_scanned_per_row_out", float64(st["engine_rows_scanned"])/float64(max(s.totalRows, 1)), "ratio"),
		m("engine.join_builds", float64(st["engine_join_builds"]), "count"),

		m("process.alloc_bytes_per_op", float64(d.mem.TotalAlloc)/ops, "B"),
		m("process.mallocs_per_op", float64(d.mem.Mallocs)/ops, "count"),
		m("process.gc_cycles", float64(d.mem.NumGC), "count"),
		m("process.gc_pause_ms", float64(d.mem.PauseTotalNs)/1e6, "ms"),
		m("process.cpu_s_per_kop", d.cpuS/ops*1000, "s"),
		m("process.lat_p99_ms", quantile(s.all, 0.99), "ms"),
		m("process.peak_rss_mb", peakRSSMB(), "MB"),
		m("trace.overhead_pct", overhead, "%"),
		m("ladder.read_sum_ms", median(lad.readSum)/1e3, "ms"),
	}
	for _, p := range probeMetrics[2:] { // the two pgwire probes are placed above
		out = append(out, m(p.name, probes[p.name], p.unit))
	}
	return append(out, s.classMetrics()...), nil
}
