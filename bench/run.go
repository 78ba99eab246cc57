package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"madlib/internal/engine"
	"madlib/internal/pgwire"
)

// segments is the segment count every benchmark database is opened with.
const segments = 4

// env is one set-up: a database, the wire server over it, and the
// workload's client connections with their statements prepared.
type env struct {
	db        *engine.DB
	srv       *pgwire.Server
	conns     []*pgwire.Client
	connectUS []float64
}

// setup boots the server, loads the tables, trains and persists the
// models, prepares the statements and runs the warm-up round, which fills
// the plan cache, the join cache and lazy set-up. All of it is setup_s.
func (w *workload) setup(seed int64) (*env, error) {
	e := &env{db: engine.Open(segments)}
	w.db = e.db
	if err := w.load(e.db); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	e.srv = pgwire.NewServer(e.db, pgwire.Config{Listen: "127.0.0.1:0"})
	if err := e.srv.Start(); err != nil {
		return nil, err
	}
	for c := 0; c < w.conns; c++ {
		t0 := time.Now()
		cl, err := pgwire.Dial(e.srv.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.connectUS = append(e.connectUS, float64(time.Since(t0))/1e3)
		e.conns = append(e.conns, cl)
	}
	for _, q := range w.init {
		if _, err := e.conns[0].Query(q); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: %w", q, err)
		}
	}
	for _, cl := range e.conns {
		for _, k := range w.kinds {
			if k.prepare == "" {
				continue
			}
			if err := cl.Prepare(k.name, k.prepare, k.oids); err != nil {
				e.close()
				return nil, fmt.Errorf("prepare %s: %w", k.name, err)
			}
		}
	}
	warm, err := e.runRound(w, w.render(w.schedule(seed, -1)), nil)
	if err != nil {
		e.close()
		return nil, err
	}
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d statements failed: %s", warm.failed, warm.attempted, warm.firstErr)
	}
	runtime.GC()
	return e, nil
}

// close stops the server and waits for its goroutines to end.
func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: server shutdown:", err)
	}
}

// sample is one latency observation: the timed statements of one class
// within one operation.
type sample struct {
	kind  int
	class class
	ms    float64
	rows  int
}

// roundResult is what one round of the schedule measured.
type roundResult struct {
	wallS     float64
	samples   []sample
	stmts     int   // timed statements completed
	rows      int64 // result rows received by timed statements
	trainRows int64
	trainS    float64
	attempted int
	failed    int
	firstErr  string
}

func (r *roundResult) fail(err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// issue sends one statement and waits for ReadyForQuery.
func issue(c *pgwire.Client, s *stmt) (*pgwire.ClientResult, error) {
	if s.prep != "" {
		return c.ExecuteParams(s.prep, s.params)
	}
	return c.Query(s.text)
}

// runRound plays one rendered round, closed loop: each connection sends
// its next statement only when the previous reply is complete. A wrong
// answer or a server error counts as a failed statement; a broken
// connection aborts the run. With a span log, every statement is
// recorded there as well.
func (e *env) runRound(w *workload, round [][]rendered, spans *spanLog) (*roundResult, error) {
	parts := make([]roundResult, len(round))
	broken := make([]error, len(round))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range round {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &parts[c]
			for i, op := range round[c] {
				var lat [nClasses]time.Duration
				var rows [nClasses]int
				var timed [nClasses]bool
				for j := range op.stmts {
					s := &op.stmts[j]
					t0 := time.Now()
					res, err := issue(e.conns[c], s)
					t1 := time.Now()
					var we *pgwire.WireError
					if err != nil && !errors.As(err, &we) {
						broken[c] = fmt.Errorf("connection %d, %s: %w", c, s.text, err)
						return
					}
					if err == nil {
						err = s.want(res)
					}
					r.attempted++
					if err != nil {
						r.fail(fmt.Errorf("%s: %w", s.text, err))
					}
					if s.untimed {
						continue
					}
					d := t1.Sub(t0)
					lat[s.class] += d
					rows[s.class] += rowCount(res)
					timed[s.class] = true
					r.stmts++
					r.rows += int64(rowCount(res))
					if s.class == classTrain {
						r.trainRows += s.trainRows
						r.trainS += d.Seconds()
					}
					if spans != nil {
						spans.add(span{Name: "wire." + classNames[s.class], Start: t0, End: t1, Parent: -1, Stmt: stmtID(spans.round, c, i, j)})
					}
				}
				for cl := range lat {
					if timed[cl] {
						r.samples = append(r.samples, sample{kind: op.kind, class: class(cl), ms: float64(lat[cl]) / 1e6, rows: rows[cl]})
					}
				}
			}
		}()
	}
	wg.Wait()
	total := &roundResult{wallS: time.Since(start).Seconds()}
	for c := range parts {
		if broken[c] != nil {
			return nil, broken[c]
		}
		p := &parts[c]
		total.samples = append(total.samples, p.samples...)
		total.stmts += p.stmts
		total.rows += p.rows
		total.trainRows += p.trainRows
		total.trainS += p.trainS
		total.attempted += p.attempted
		total.failed += p.failed
		if total.firstErr == "" {
			total.firstErr = p.firstErr
		}
	}
	if w.endRound != nil {
		total.attempted++
		if err := w.endRound(e, total); err != nil {
			total.fail(err)
		}
	}
	return total, nil
}
