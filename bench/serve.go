package main

import (
	"fmt"
	"math/rand"

	"madlib/internal/engine"
	"madlib/internal/pgwire"
)

// serveMix is the application-serving mix: short aggregates, a scoring
// query and single-row inserts on one 8,192-row table. The table is above
// engine.ParallelRowThreshold but fits in L2, so lex/parse, the plan
// cache, the session, the latches, wire framing and the socket do most of
// the work and the kernels do little.
//
// All values are thousandths, kept as integers here, so every expected
// answer is exact integer arithmetic: a row has v > 0.25 exactly when its
// integer is above 250.
func serveMix(seed int64, scale int) *workload {
	const groups = 16
	n := 8192 / scale
	rng := rand.New(rand.NewSource(seed))
	V, F1, F2 := make([]int, n), make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		V[i], F1[i], F2[i] = rng.Intn(1000), rng.Intn(1000), rng.Intn(1000)
	}
	milli := func(k int) float64 { return float64(k) / 1000 }

	// cnt[g][t] and sum[g][t] cover the rows of group g with V >= t.
	var cnt [groups][1002]int
	var sum [groups][1002]float64
	for i := 0; i < n; i++ {
		g := i % groups
		cnt[g][V[i]]++
		sum[g][V[i]] += milli(V[i])
	}
	for g := 0; g < groups; g++ {
		for t := 1000; t >= 0; t-- {
			cnt[g][t] += cnt[g][t+1]
			sum[g][t] += sum[g][t+1]
		}
	}
	// The model is fitted on exact data y = 2a + 3b, so a row's score is
	// (2*F1 + 3*F2)/1000 up to rounding, and thresholds sit half a
	// thousandth between two possible scores.
	var scoreGE [5002]int // rows with 2*F1+3*F2 >= s
	for i := 0; i < n; i++ {
		scoreGE[2*F1[i]+3*F2[i]]++
	}
	for s := 5000; s >= 0; s-- {
		scoreGE[s] += scoreGE[s+1]
	}

	// perGroup is the answer to "GROUP BY g" over rows with V > t.
	perGroup := func(t int, avg bool) check {
		want := map[string][]float64{}
		for g := 0; g < groups; g++ {
			c, s := cnt[g][t+1], sum[g][t+1]
			if c == 0 {
				continue
			}
			if avg {
				s /= float64(c)
			}
			want[itoa(int64(g))] = []float64{s, float64(c)}
		}
		return rowsCheck(1, want)
	}

	w := &workload{name: "serve_mix", conns: 2}
	hot := []int{250, 500, 750, 100}
	w.kinds = []kind{
		{
			name: "hot_agg", head: true, perRound: 4000 / scale, nArgs: int64(len(hot)),
			stmts: func(arg int64, _ int) []stmt {
				t := hot[arg]
				return one(stmt{class: classRead, want: perGroup(t, true),
					text: fmt.Sprintf("SELECT g, avg(v), count(*) FROM events WHERE g < 16 AND v > %s GROUP BY g", ftoa(milli(t)))})
			},
			direct: func(db *engine.DB, arg int64) error { return directGroupAgg(db, "events", 0, 1, milli(hot[arg])) },
		},
		{
			name: "prep_agg", head: true, perRound: 1200 / scale, nArgs: 1000,
			prepare: "SELECT g, sum(v), count(*) FROM events WHERE g < 16 AND v > $1 GROUP BY g",
			oids:    []int32{pgwire.OidFloat8},
			stmts: func(arg int64, _ int) []stmt {
				t := milli(int(arg))
				return one(stmt{class: classRead, prep: "prep_agg", want: perGroup(int(arg), false),
					params: []pgwire.WireParam{pgwire.Float8Param(t)}, args: []any{t},
					text: fmt.Sprintf("SELECT g, sum(v), count(*) FROM events WHERE g < 16 AND v > %s GROUP BY g", ftoa(t))})
			},
		},
		{
			// The hot statement with one of 4,096 literals: against a
			// 256-entry plan cache almost every one of these is lexed,
			// parsed and planned, and that is all that sets it apart.
			name: "cold_agg", head: true, perRound: 800 / scale, nArgs: 4096,
			stmts: func(arg int64, _ int) []stmt {
				// v > arg/10000 holds exactly when V > arg/10, rounded down.
				return one(stmt{class: classRead, want: perGroup(int(arg)/10, true),
					text: fmt.Sprintf("SELECT g, avg(v), count(*) FROM events WHERE g < 16 AND v > 0.%04d GROUP BY g", arg)})
			},
		},
		{
			name: "score", perRound: 1200 / scale, nArgs: 5000,
			prepare: "SELECT count(*) FROM events WHERE g < 16 AND madlib.predict('m', f1, f2) > $1",
			oids:    []int32{pgwire.OidFloat8},
			stmts: func(arg int64, _ int) []stmt {
				t := (float64(arg) + 0.5) / 1000
				return one(stmt{class: classScore, prep: "score",
					want:   rowsCheck(0, map[string][]float64{"": {float64(scoreGE[arg+1])}}),
					params: []pgwire.WireParam{pgwire.Float8Param(t)}, args: []any{t},
					text: fmt.Sprintf("SELECT count(*) FROM events WHERE g < 16 AND madlib.predict('m', f1, f2) > %s", ftoa(t))})
			},
			direct: func(db *engine.DB, arg int64) error {
				return directScore(db, "events", []int{2, 3}, []float64{2, 3}, (float64(arg)+0.5)/1000)
			},
		},
		{
			// Inserted rows have g >= 16 and every read filters g < 16, so
			// the writes take the table's latch beside the reads without
			// changing any expected answer.
			name: "insert", perRound: 800 / scale, nArgs: 16000,
			stmts: func(arg int64, _ int) []stmt {
				return one(stmt{class: classWrite, want: tagCheck("INSERT 0 1"),
					text: fmt.Sprintf("INSERT INTO events VALUES (%d, %s, 0.5, 0.5)", 16+arg%16, ftoa(milli(int(arg/16))))})
			},
		},
	}

	fill := func(t *engine.Table) error {
		for i := 0; i < n; i++ {
			if err := t.Insert(int64(i%groups), milli(V[i]), milli(F1[i]), milli(F2[i])); err != nil {
				return err
			}
		}
		return nil
	}
	w.load = func(db *engine.DB) error {
		t, err := db.CreateTable("events", engine.Schema{
			{Name: "g", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
			{Name: "f1", Kind: engine.Float}, {Name: "f2", Kind: engine.Float},
		})
		if err != nil {
			return err
		}
		if err := fill(t); err != nil {
			return err
		}
		fit, err := db.CreateTable("events_fit", engine.Schema{
			{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
		})
		if err != nil {
			return err
		}
		for i := 0; i < 512 && i < n; i++ {
			a, b := milli(F1[i]), milli(F2[i])
			if err := fit.Insert(2*a+3*b, []float64{a, b}); err != nil {
				return err
			}
		}
		return nil
	}
	w.init = []string{"SELECT (madlib.linregr('m', y, x)).* FROM events_fit"}
	inserts := w.kinds[4].perRound
	w.endRound = func(e *env, _ *roundResult) error {
		res, err := e.conns[0].Query("SELECT count(*) FROM events WHERE g >= 16")
		if err == nil {
			err = rowsCheck(0, map[string][]float64{"": {float64(inserts)}})(res)
		}
		if err != nil {
			return fmt.Errorf("rows left by the round's inserts: %w", err)
		}
		t, err := e.db.Table("events")
		if err != nil {
			return err
		}
		t.Truncate()
		return fill(t)
	}
	return w
}
