package main

import (
	"fmt"
	"runtime"
	"sort"

	"madlib/internal/engine"
)

// summary pools what the timed rounds measured. Counts of statements
// attempted and failed cover every round. Rates and latencies cover the
// faster half of the rounds: every round does the same work, so a round
// that took longer was disturbed from outside, which on a shared box
// happens in episodes of several seconds and only ever slows a round.
type summary struct {
	w                 *workload
	rounds            int
	attempted, failed int
	firstErr          string
	// Over every round, in play order: the rates behind
	// trace.overhead_pct, and the totals the counter deltas divide by.
	opsPerS    []float64
	totalStmts int
	totalRows  int64
	totalScore int // score samples, the divisor of the predict_rows delta

	// The faster half:
	stmts     int
	rows      int64
	wallS     float64
	trainRows int64
	trainS    float64
	// Latencies in ms: every sample, the headline population, the rest,
	// and per class and per kind.
	all, head, side []float64
	byClass         [nClasses][]float64
	rowsByClass     [nClasses]int64
	byKind          map[string][]float64
}

func summarize(w *workload, rounds []*roundResult) *summary {
	s := &summary{w: w, rounds: len(rounds), byKind: map[string][]float64{}}
	for _, r := range rounds {
		s.attempted += r.attempted
		s.failed += r.failed
		if s.firstErr == "" {
			s.firstErr = r.firstErr
		}
		s.opsPerS = append(s.opsPerS, float64(r.stmts)/r.wallS)
		s.totalStmts += r.stmts
		s.totalRows += r.rows
		for _, x := range r.samples {
			if x.class == classScore {
				s.totalScore++
			}
		}
	}
	byWall := append([]*roundResult(nil), rounds...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wallS < byWall[j].wallS })
	for _, r := range byWall[:(len(byWall)+1)/2] {
		s.stmts += r.stmts
		s.rows += r.rows
		s.wallS += r.wallS
		s.trainRows += r.trainRows
		s.trainS += r.trainS
		for _, x := range r.samples {
			k := &w.kinds[x.kind]
			s.all = append(s.all, x.ms)
			s.byClass[x.class] = append(s.byClass[x.class], x.ms)
			s.rowsByClass[x.class] += int64(x.rows)
			s.byKind[k.name] = append(s.byKind[k.name], x.ms)
			if k.head {
				s.head = append(s.head, x.ms)
			} else {
				s.side = append(s.side, x.ms)
			}
		}
	}
	return s
}

// endToEnd is what a user of the system sees, from the untraced run.
func (s *summary) endToEnd(setupS []float64) []metric {
	return []metric{
		{"setup_s", median(setupS), "s", len(setupS)},
		{"ops_per_s", float64(s.stmts) / s.wallS, "1/s", s.stmts},
		{"rows_out_per_s", float64(s.rows) / s.wallS, "rows/s", int(s.rows)},
		{"head_p50_ms", median(s.head), "ms", len(s.head)},
		{"head_p95_ms", quantile(s.head, 0.95), "ms", len(s.head)},
		{"side_p50_ms", median(s.side), "ms", len(s.side)},
	}
}

// classMetrics are the per-class figures of the report. A class the
// workload does not have reads 0, and a p95 is 0 below minP95Samples.
func (s *summary) classMetrics() []metric {
	var out []metric
	add := func(name string, xs []float64, q float64) {
		v := quantile(xs, q)
		if q == 0.95 {
			v, _ = p95(xs)
		}
		out = append(out, metric{name, v, "ms", len(xs)})
	}
	add("class.read_p50_ms", s.byClass[classRead], 0.5)
	add("class.read_p95_ms", s.byClass[classRead], 0.95)
	add("class.write_p50_ms", s.byClass[classWrite], 0.5)
	add("class.write_p95_ms", s.byClass[classWrite], 0.95)
	add("class.bulk_p50_ms", s.byClass[classBulk], 0.5)
	add("class.score_p50_ms", s.byClass[classScore], 0.5)
	add("class.linregr_p50_ms", s.byKind["linregr"], 0.5)
	add("class.igd_p50_ms", s.byKind["logregr_igd"], 0.5)
	rate := 0.0
	if s.trainS > 0 {
		rate = float64(s.trainRows) / s.trainS
	}
	out = append(out,
		metric{"class.train_rows_per_s", rate, "rows/s", len(s.byClass[classTrain])},
		metric{"class.fail_share", float64(s.failed) / float64(s.attempted), "ratio", s.attempted})
	return out
}

func (s *summary) print(metrics []metric) {
	fmt.Printf("rounds=%d attempted=%d failed=%d; faster half: statements=%d wall_s=%.2f\n",
		s.rounds, s.attempted, s.failed, s.stmts, s.wallS)
	if s.firstErr != "" {
		fmt.Printf("first failure: %s\n", s.firstErr)
	}
	for _, k := range s.w.kinds {
		xs := s.byKind[k.name]
		fmt.Printf("  kind %-20s n=%-6d p50=%10.4f ms  p95=%10.4f ms  head=%v\n", k.name, len(xs), median(xs), quantile(xs, 0.95), k.head)
	}
	for _, m := range metrics {
		if m.n > 0 {
			fmt.Printf("  %-34s %14.4f %-7s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

// counters is a reading of everything the traced report takes deltas of.
type counters struct {
	stats map[string]int64
	mem   runtime.MemStats
	cpuS  float64
}

func takeCounters(db *engine.DB) *counters {
	c := &counters{stats: map[string]int64{}, cpuS: cpuSeconds()}
	for _, st := range db.Metrics().Snapshot() {
		c.stats[st.Name] = st.Value
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// minus returns c - earlier, field by field where the report needs it.
func (c *counters) minus(earlier *counters) *counters {
	d := &counters{stats: map[string]int64{}, cpuS: c.cpuS - earlier.cpuS}
	for k, v := range c.stats {
		d.stats[k] = v - earlier.stats[k]
	}
	d.mem.TotalAlloc = c.mem.TotalAlloc - earlier.mem.TotalAlloc
	d.mem.Mallocs = c.mem.Mallocs - earlier.mem.Mallocs
	d.mem.NumGC = c.mem.NumGC - earlier.mem.NumGC
	d.mem.PauseTotalNs = c.mem.PauseTotalNs - earlier.mem.PauseTotalNs
	return d
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
