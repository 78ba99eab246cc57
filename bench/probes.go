package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"madlib/internal/engine"
	"madlib/internal/model"
	"madlib/internal/pgwire"
	sqlfe "madlib/internal/sql"
)

// The probes time single layers through their public functions, on tables
// of their own in a database of their own, so the same figures come out of
// the traced run of every workload. The trainer tables have the shapes of
// train_refresh.

// probeMetrics names what runProbes measures, in report order.
var probeMetrics = []struct{ name, unit string }{
	{"pgwire.row_encode_ns_per_row", "ns/row"}, {"pgwire.connect_us", "us"},
	{"engine.groupagg_ns_per_row", "ns/row"}, {"engine.rowagg_ns_per_row", "ns/row"},
	{"engine.sort_ns_per_row", "ns/row"}, {"engine.join_build_us", "us"},
	{"engine.window_ns_per_row", "ns/row"}, {"engine.rows_box_ns_per_row", "ns/row"},
	{"engine.insert_ns_per_row", "ns/row"}, {"engine.scan_speedup_x", "x"},
	{"linregr.run_ms", "ms"}, {"linregr.ns_per_row", "ns/row"},
	{"linregr.sql_overhead_ms", "ms"}, {"linregr.speedup_x", "x"},
	{"igd.train_ms", "ms"}, {"igd.epoch_ns_per_row", "ns/row"}, {"igd.speedup_x", "x"},
	{"igd.epochs", "count"}, {"igd.rows", "count"},
	{"kmeans.run_ms", "ms"},
	{"model.save_us", "us"}, {"model.load_us", "us"},
}

// timeIt returns the median wall time of reps calls, in seconds.
func timeIt(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// speedup times fn at GOMAXPROCS(1) and at the machine default and
// returns serial/parallel with the parallel time: the real-core backing
// of the paper's §4.4(b) and Figure 5.
func speedup(reps int, fn func() error) (x, parallelS float64, err error) {
	parallelS, err = timeIt(reps, fn)
	if err != nil {
		return 0, 0, err
	}
	prev := runtime.GOMAXPROCS(1)
	serialS, err := timeIt(reps, fn)
	runtime.GOMAXPROCS(prev)
	return serialS / parallelS, parallelS, err
}

func runProbes(seed int64, scale int) (map[string]float64, error) {
	out := map[string]float64{}
	db := engine.Open(segments)
	n := 65_536 / scale
	rng := rand.New(rand.NewSource(seed + 11))
	schema := engine.Schema{{Name: "g", Kind: engine.Int}, {Name: "v", Kind: engine.Float}, {Name: "s", Kind: engine.String}}
	probe, err := db.CreateTable("probe", schema)
	if err != nil {
		return nil, err
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(rng.Intn(64)), float64(rng.Intn(100_000)) / 100, "s" + strconv.Itoa(rng.Intn(1000))}
		if err := probe.Insert(rows[i]...); err != nil {
			return nil, err
		}
	}
	dim, err := db.CreateTable("probe_dim", engine.Schema{{Name: "g", Kind: engine.Int}, {Name: "name", Kind: engine.String}})
	if err != nil {
		return nil, err
	}
	for g := 0; g < 64; g++ {
		if err := dim.Insert(int64(g), "g"+strconv.Itoa(g)); err != nil {
			return nil, err
		}
	}
	td := newTrainData(seed, scale)
	if err := td.load(db); err != nil {
		return nil, err
	}
	perRow := func(seconds float64, rows int) float64 { return seconds * 1e9 / float64(rows) }

	// engine
	x, s, err := speedup(25, func() error { return directGroupAgg(db, "probe", 0, 1, 250) })
	if err != nil {
		return nil, err
	}
	out["engine.scan_speedup_x"], out["engine.groupagg_ns_per_row"] = x, perRow(s, n)
	boxed := engine.FuncAggregate{
		InitFn:       func() any { return new(float64) },
		TransitionFn: func(st any, row engine.Row) any { *st.(*float64) += row.Float(1); return st },
		MergeFn:      func(a, b any) any { *a.(*float64) += *b.(*float64); return a },
		FinalFn:      func(st any) (any, error) { return *st.(*float64), nil },
	}
	if s, err = timeIt(9, func() error { _, err := db.Run(probe, boxed); return err }); err != nil {
		return nil, err
	}
	out["engine.rowagg_ns_per_row"] = perRow(s, n)
	s, _ = timeIt(5, func() error {
		db.SortStable(n, func(a, b int) bool { return rows[a][1].(float64) < rows[b][1].(float64) })
		return nil
	})
	out["engine.sort_ns_per_row"] = perRow(s, n)
	if s, err = timeIt(5, func() error {
		j, err := db.HashJoinTemp("probe_join", probe, "g", dim, "g", false)
		if err != nil {
			return err
		}
		return db.DropTable(j.Name())
	}); err != nil {
		return nil, err
	}
	out["engine.join_build_us"] = s * 1e6
	if s, err = timeIt(3, func() error {
		_, err := db.RunWindow(probe, engine.WindowSpec{
			PartitionBy: func(r engine.Row) string { return strconv.FormatInt(r.Int(0), 10) },
			OrderBy:     func(a, b engine.Row) bool { return a.Float(1) < b.Float(1) },
		}, func() any { return 0.0 }, func(st any, r engine.Row) (any, any) {
			sum := st.(float64) + r.Float(1)
			return sum, sum
		})
		return err
	}); err != nil {
		return nil, err
	}
	out["engine.window_ns_per_row"] = perRow(s, n)
	s, _ = timeIt(5, func() error { db.Rows(probe); return nil })
	out["engine.rows_box_ns_per_row"] = perRow(s, n)
	if s, err = timeIt(3, func() error {
		t, err := db.CreateTable("probe_insert", schema)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := t.Insert(r...); err != nil {
				return err
			}
		}
		return db.DropTable("probe_insert")
	}); err != nil {
		return nil, err
	}
	out["engine.insert_ns_per_row"] = perRow(s, n)

	// trainers: the direct call, its speed-up on real cores, and what the
	// SQL statement adds on top of it
	sess := sqlfe.NewSession(db)
	defer sess.Close()
	if x, s, err = speedup(5, func() error { return directLinregr(db) }); err != nil {
		return nil, err
	}
	out["linregr.speedup_x"], out["linregr.run_ms"], out["linregr.ns_per_row"] = x, s*1e3, perRow(s, len(td.reg.Y))
	// Statement and direct call alternate, so that drift in the machine's
	// speed cancels out of their difference.
	var over []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := sess.Exec(linregrSQL); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := directLinregr(db); err != nil {
			return nil, err
		}
		over = append(over, (t1.Sub(t0)-time.Since(t1)).Seconds()*1e3)
	}
	out["linregr.sql_overhead_ms"] = median(over)
	epochs, trained := db.Metrics().Counter("train_epochs"), db.Metrics().Counter("train_rows")
	e0, r0 := epochs.Value(), trained.Value()
	if x, s, err = speedup(3, func() error { return directIGD(db) }); err != nil {
		return nil, err
	}
	const igdCalls = 6 // speedup times three calls at each GOMAXPROCS
	out["igd.speedup_x"], out["igd.train_ms"] = x, s*1e3
	out["igd.epochs"], out["igd.rows"] = float64(epochs.Value()-e0)/igdCalls, float64(len(td.cls.Y))
	out["igd.epoch_ns_per_row"] = s * 1e9 * igdCalls / float64(trained.Value()-r0)
	if s, err = timeIt(5, func() error { return directKMeans(db) }); err != nil {
		return nil, err
	}
	out["kmeans.run_ms"] = s * 1e3

	// model catalog
	coef := make([]float64, 40)
	for i := range coef {
		coef[i] = float64(i) + 0.5
	}
	if s, err = timeIt(9, func() error {
		_, err := model.Save(db, model.Model{Name: "probe", Kind: "linregr", Coef: coef, NumRows: 1})
		return err
	}); err != nil {
		return nil, err
	}
	out["model.save_us"] = s * 1e6
	if s, err = timeIt(9, func() error { _, _, _, err := model.Load(db, "probe"); return err }); err != nil {
		return nil, err
	}
	out["model.load_us"] = s * 1e6

	// wire: connecting, and what shipping a row costs over producing it
	srv := pgwire.NewServer(db, pgwire.Config{Listen: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	var cl *pgwire.Client
	if s, err = timeIt(5, func() error {
		if cl != nil {
			cl.Close()
		}
		var err error
		cl, err = pgwire.Dial(srv.Addr().String())
		return err
	}); err != nil {
		return nil, err
	}
	defer cl.Close()
	out["pgwire.connect_us"] = s * 1e6
	const all = "SELECT g, v, s FROM probe"
	inProc, err := timeIt(5, func() error { _, err := sess.Exec(all); return err })
	if err != nil {
		return nil, err
	}
	wire, err := timeIt(5, func() error {
		res, err := cl.Query(all)
		if err == nil && len(res.Rows) != n {
			err = fmt.Errorf("probe select returned %d rows, want %d", len(res.Rows), n)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["pgwire.row_encode_ns_per_row"] = perRow(wire-inProc, n)
	return out, nil
}
