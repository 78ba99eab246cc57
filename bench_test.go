// Benchmarks regenerating the paper's evaluation, one family per table or
// figure (README.md, "Benchmark", indexes the experiments):
//
//	BenchmarkFigure4_*   — linregr wall time per (segments, vars, version)
//	BenchmarkFigure5_*   — linregr (default batch generation) per segment count
//	BenchmarkOverhead    — §4.4(a): fixed per-query cost
//	BenchmarkSpeedup_*   — §4.4(b): segment-count sweep
//	BenchmarkTable2_*    — one pass of each SGD-framework model
//	BenchmarkTable3_*    — text-analytics methods
//	BenchmarkAblation*   — design-choice ablations (README.md, "Benchmark")
//
// cmd/madbench produces the paper-shaped tables (including the simulated
// cluster-critical-path metric); these benches give `go test -bench`
// observability over the same code paths.
package madlib_test

import (
	"context"
	"fmt"
	"testing"

	"madlib/internal/core"
	"madlib/internal/crf"
	"madlib/internal/datagen"
	"madlib/internal/engine"
	"madlib/internal/igd"
	"madlib/internal/kmeans"
	"madlib/internal/linregr"
	"madlib/internal/sgd"
	sqlfe "madlib/internal/sql"
	"madlib/internal/svm"
	"madlib/internal/text"
)

// benchRows keeps bench datasets small enough for -bench=. sweeps; the
// madbench harness uses larger, flag-controlled sizes.
const benchRows = 10000

func figure4Bench(b *testing.B, segments, vars int, version linregr.Version) {
	b.Helper()
	gen := datagen.NewRegression(int64(vars)*7+int64(segments), benchRows, vars, 0.5)
	db := engine.Open(segments)
	tbl, err := gen.LoadRegression(db, "data")
	if err != nil {
		b.Fatal(err)
	}
	agg, err := linregr.BuildAggregate(tbl, "y", "x", linregr.WithVersion(version))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RunInstrumented(tbl, agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for _, segs := range []int{6, 24} {
		for _, vars := range []int{10, 80} {
			for _, v := range []linregr.Version{linregr.V03, linregr.V021Beta, linregr.V01Alpha, linregr.VBatch} {
				b.Run(fmt.Sprintf("segs=%d/vars=%d/%v", segs, vars, v), func(b *testing.B) {
					figure4Bench(b, segs, vars, v)
				})
			}
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for _, segs := range []int{6, 12, 18, 24} {
		b.Run(fmt.Sprintf("segs=%d/vars=40", segs), func(b *testing.B) {
			figure4Bench(b, segs, 40, linregr.VBatch)
		})
	}
}

// BenchmarkOverhead measures the fixed per-query cost of the engine — the
// §4.4 claim that "the overhead for a single query is very low".
func BenchmarkOverhead(b *testing.B) {
	db := engine.Open(24)
	tbl, err := db.CreateTable("t", engine.Schema{
		{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Insert(1.0, make([]float64, 10)); err != nil {
		b.Fatal(err)
	}
	agg, err := linregr.BuildAggregate(tbl, "y", "x")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(tbl, agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedup(b *testing.B) {
	// ns/op here is the *sequential simulation* time (constant across
	// segment counts by construction); the cluster latency is the custom
	// critpath-ns metric — the slowest segment plus the merge/final tail —
	// which shrinks as segments grow.
	gen := datagen.NewRegression(3, benchRows*2, 80, 0.5)
	for _, segs := range []int{6, 12, 18, 24} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			db := engine.Open(segs)
			tbl, err := gen.LoadRegression(db, "data")
			if err != nil {
				b.Fatal(err)
			}
			agg, err := linregr.BuildAggregate(tbl, "y", "x")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var bestCritPath float64
			for i := 0; i < b.N; i++ {
				_, qs, err := db.RunSimulated(tbl, agg)
				if err != nil {
					b.Fatal(err)
				}
				if cp := float64(qs.MaxSegmentTime.Nanoseconds()); bestCritPath == 0 || cp < bestCritPath {
					bestCritPath = cp
				}
			}
			b.ReportMetric(bestCritPath, "critpath-ns")
		})
	}
}

// BenchmarkTable2 runs one IGD pass of each Table-2 model.
func BenchmarkTable2(b *testing.B) {
	db := engine.Open(4)
	reg := datagen.NewRegression(21, benchRows, 5, 0.2)
	regT, err := reg.LoadRegression(db, "reg")
	if err != nil {
		b.Fatal(err)
	}
	logGen := datagen.NewMargin(22, benchRows, 5, 0.4)
	marT, err := logGen.Load(db, "mar")
	if err != nil {
		b.Fatal(err)
	}
	rat := datagen.NewRatings(23, 50, 40, 3, benchRows, 0.05)
	ratT, _ := db.CreateTable("rat", engine.Schema{
		{Name: "i", Kind: engine.Int}, {Name: "j", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
	})
	for _, e := range rat.Entries {
		if err := ratT.Insert(int64(e.I), int64(e.J), e.Value); err != nil {
			b.Fatal(err)
		}
	}
	onePass := sgd.Options{MaxPasses: 1, Tolerance: 1e-12}
	run := func(b *testing.B, tbl *engine.Table, extract sgd.Extractor, m sgd.Model) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sgd.Train(db, tbl, extract, m, onePass); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("LeastSquares", func(b *testing.B) { run(b, regT, sgd.ExtractLabeled(0, 1), sgd.LeastSquares{K: 5}) })
	b.Run("Lasso", func(b *testing.B) { run(b, regT, sgd.ExtractLabeled(0, 1), sgd.Lasso{K: 5, Mu: 0.5}) })
	b.Run("Logistic", func(b *testing.B) { run(b, marT, sgd.ExtractLabeled(0, 1), sgd.Logistic{K: 5}) })
	b.Run("SVM", func(b *testing.B) { run(b, marT, sgd.ExtractLabeled(0, 1), sgd.HingeSVM{K: 5}) })
	b.Run("Recommendation", func(b *testing.B) {
		run(b, ratT, sgd.ExtractRating(0, 1, 2), sgd.LowRank{Rows: 50, Cols: 40, Rank: 3, Mu: 1e-4})
	})
	b.Run("CRF", func(b *testing.B) {
		corpus := crfCorpus(25, 100, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := crf.Train(corpus, crf.TrainOptions{MaxPasses: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func crfCorpus(seed int64, n, meanLen int) []crf.Sentence {
	raw := datagen.NewCorpus(seed, n, meanLen)
	out := make([]crf.Sentence, len(raw))
	for i, sent := range raw {
		s := make(crf.Sentence, len(sent))
		for j, tok := range sent {
			s[j] = crf.Token{Word: tok.Word, Tag: tok.Tag}
		}
		out[i] = s
	}
	return out
}

// BenchmarkTable3 exercises the text-analysis methods of Table 3.
func BenchmarkTable3(b *testing.B) {
	model, err := crf.Train(crfCorpus(31, 200, 8), crf.TrainOptions{MaxPasses: 5})
	if err != nil {
		b.Fatal(err)
	}
	words := []string{"the", "fast", "analyst", "builds", "a", "sparse", "model"}
	b.Run("Viterbi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.Viterbi(words)
		}
	})
	b.Run("ViterbiTop3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.ViterbiTopK(words, 3)
		}
	})
	b.Run("GibbsSweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.Gibbs(words, crf.MCMCOptions{Sweeps: 1, BurnIn: 0, Seed: int64(i)})
		}
	})
	b.Run("MetropolisHastingsSweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.MetropolisHastings(words, crf.MCMCOptions{Sweeps: 1, BurnIn: 0, Seed: int64(i)})
		}
	})
	b.Run("TrigramSearch", func(b *testing.B) {
		ix := text.NewIndex()
		names, mentions := datagen.Names(32, 50)
		for i, n := range names {
			ix.Add(i, n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Search(mentions[i%len(mentions)], 0.4)
		}
	})
}

// --- Ablations (README.md, "Benchmark") ---

// BenchmarkAblationInnerLoop isolates the three historical inner loops on
// the same data: triangular (v0.3), full square (v0.1alpha), and
// temp-materializing column-major (v0.2.1beta).
func BenchmarkAblationInnerLoop(b *testing.B) {
	for _, vars := range []int{10, 80, 160} {
		for _, v := range []linregr.Version{linregr.V03, linregr.V01Alpha, linregr.V021Beta} {
			b.Run(fmt.Sprintf("vars=%d/%v", vars, v), func(b *testing.B) {
				figure4Bench(b, 4, vars, v)
			})
		}
	}
}

// BenchmarkAblationBridging isolates the abstraction layer's per-row cost:
// the same sum-of-dot aggregate through boxed AnyType access (args.At)
// versus the fused zero-copy accessors (args.Float / args.Vector).
func BenchmarkAblationBridging(b *testing.B) {
	gen := datagen.NewRegression(8, 50000, 8, 0.5)
	db := engine.Open(4)
	tbl, err := gen.LoadRegression(db, "d")
	if err != nil {
		b.Fatal(err)
	}
	bind, err := core.BindColumns(tbl.Schema(), "y", "x")
	if err != nil {
		b.Fatal(err)
	}
	makeAgg := func(boxed bool) engine.Aggregate {
		return engine.FuncAggregate{
			InitFn: func() any { return 0.0 },
			TransitionFn: func(s any, row engine.Row) any {
				args := bind.Bridge(row)
				var y float64
				var x []float64
				if boxed {
					y = args.At(0).Float()
					x = args.At(1).Vector()
				} else {
					y = args.Float(0)
					x = args.Vector(1)
				}
				acc := s.(float64)
				for _, v := range x {
					acc += y * v
				}
				return acc
			},
			MergeFn: func(a, bb any) any { return a.(float64) + bb.(float64) },
			FinalFn: func(s any) (any, error) { return s, nil },
		}
	}
	for _, boxed := range []bool{true, false} {
		name := "BoxedAnyType"
		if !boxed {
			name = "FusedZeroCopy"
		}
		agg := makeAgg(boxed)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(tbl, agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKMeansPattern compares §4.3's two macro-programming
// patterns on identical data and seeding.
func BenchmarkAblationKMeansPattern(b *testing.B) {
	gen := datagen.NewClusters(7, 20000, 8, 4, 0.5)
	for _, pattern := range []kmeans.Pattern{kmeans.UDAOnly, kmeans.AssignmentTable} {
		name := "UDAOnly"
		if pattern == kmeans.AssignmentTable {
			name = "AssignmentTable"
		}
		b.Run(name, func(b *testing.B) {
			db := engine.Open(4)
			tbl, err := gen.Load(db, "points")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := kmeans.Run(db, tbl, "coords", kmeans.Options{
					K: 8, Seed: 1, MaxIterations: 5, Pattern: pattern,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUpdatePattern compares in-place UPDATE with the
// CREATE-TABLE-AS-then-DROP pattern §4.3 notes is often faster on
// PostgreSQL's versioned storage (our storage updates in place, so UPDATE
// should win here — the bench documents the reversal).
func BenchmarkAblationUpdatePattern(b *testing.B) {
	load := func(db *engine.DB, name string) *engine.Table {
		tbl, err := db.CreateTable(name, engine.Schema{
			{Name: "x", Kind: engine.Float}, {Name: "cid", Kind: engine.Int},
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 50000; i++ {
			if err := tbl.Insert(float64(i), int64(0)); err != nil {
				b.Fatal(err)
			}
		}
		return tbl
	}
	b.Run("UpdateInPlace", func(b *testing.B) {
		db := engine.Open(4)
		tbl := load(db, "pts")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := db.UpdateInt(tbl, "cid", func(r engine.Row) int64 { return int64(r.Float(0)) % 8 })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CreateTableAs", func(b *testing.B) {
		db := engine.Open(4)
		tbl := load(db, "pts")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := db.SelectInto(fmt.Sprintf("pts_new_%d", i), tbl, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.UpdateInt(out, "cid", func(r engine.Row) int64 { return int64(r.Float(0)) % 8 }); err != nil {
				b.Fatal(err)
			}
			if err := db.DropTable(out.Name()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLBulkCTAS sends the bulk range selection to storage instead
// of the wire: CREATE TABLE AS over 20,000 rows, then the DROP. The
// executor's typed chunks append to the new table lane by lane, so
// allocs/op stays far below one per row (scripts/bench_check.sh gates
// it).
func BenchmarkSQLBulkCTAS(b *testing.B) {
	db := engine.Open(4)
	loadBulkFacts(b, db)
	sess := sqlfe.NewSession(db)
	run := func(i int) {
		lo := (i % 1024) * (9 * bulkSpan) / 1024
		res, err := sess.Exec(fmt.Sprintf("CREATE TABLE bulk_tmp AS SELECT id, g, v, label FROM facts WHERE id >= %d AND id < %d + %d; DROP TABLE bulk_tmp", lo, lo, bulkSpan))
		if err != nil {
			b.Fatal(err)
		}
		if want := fmt.Sprintf("SELECT %d", bulkSpan); res[0].Tag != want {
			b.Fatalf("tag %q, want %q", res[0].Tag, want)
		}
	}
	run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}

// BenchmarkAblationSGDAveraging compares per-replica model averaging with
// a single surviving chain, directly on the igd harness.
func BenchmarkAblationSGDAveraging(b *testing.B) {
	gen := datagen.NewRegression(6, 20000, 8, 0.1)
	for _, avg := range []bool{true, false} {
		name := "Averaging"
		if !avg {
			name = "SingleChain"
		}
		b.Run(name, func(b *testing.B) {
			db := engine.Open(4)
			tbl, err := gen.LoadRegression(db, "d")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := igd.Train(db, tbl, igd.VectorFeatures(0, 1), igd.LeastSquares{K: 8},
					igd.Options{StepSize: 0.1, Epochs: 3, Tolerance: 1e-12, NoAveraging: !avg})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Training-harness benchmarks (vectorized vs boxed row lane) ---
//
// Each vectorized benchmark has a RowLane companion running the SAME
// schedule, losses and floating-point operations through boxed
// row-at-a-time access (one engine.Row cursor, one closure call and one
// interface boxing per example — the pre-harness access path). The
// models come out bit-identical; the ns/op ratio is the gather-kernel
// win in isolation. scripts/bench_check.sh gates the same-run ratio.

const trainBenchRows = 20000
const trainBenchVars = 4

func trainBenchTable(b *testing.B) (*engine.DB, *engine.Table) {
	b.Helper()
	db := engine.Open(4)
	gen := datagen.NewMargin(41, trainBenchRows, trainBenchVars, 0.4)
	tbl, err := gen.Load(db, "train")
	if err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

// trainBenchOpts runs two seeded-shuffle epochs — enough to exercise the
// permutation path without drowning the per-row cost in epoch count.
var trainBenchOpts = igd.Options{StepSize: 0.1, Epochs: 2, Tolerance: -1, Seed: 7}

func BenchmarkTrainLogregrIGD(b *testing.B) {
	db, tbl := trainBenchTable(b)
	loss := igd.Logistic{K: trainBenchVars}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := igd.Train(db, tbl, igd.VectorFeatures(0, 1), loss, trainBenchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainLogregrIGDRowLane(b *testing.B) {
	db, tbl := trainBenchTable(b)
	loss := igd.Logistic{K: trainBenchVars}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := igd.TrainRowLane(db, tbl, igd.VectorFeatures(0, 1), loss, trainBenchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainSVM(b *testing.B) {
	db, tbl := trainBenchTable(b)
	opts := svm.Options{Passes: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(db, tbl, "y", "x", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainSVMRowLane(b *testing.B) {
	db, tbl := trainBenchTable(b)
	// The same hinge schedule svm.Train runs (its defaults), on the boxed
	// row lane.
	loss := igd.Hinge{K: trainBenchVars, Lambda: 1e-4}
	opts := igd.Options{StepSize: 0.1, Epochs: 2, Tolerance: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := igd.TrainRowLane(db, tbl, igd.VectorFeatures(0, 1), loss, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinregrRun times the call a madlib.linregr statement makes —
// linregr.Run, default (batch) generation — on the repo benchmark's
// train_refresh shape (100k × 40, four segments). BenchmarkLinregrRunV03
// is the row-at-a-time v0.3 transition over the same table: the results
// are bit-identical, so the same-run ratio (gated by scripts/bench_check.sh)
// is the batch transition plus the blocked XᵀX kernel in isolation.
func benchLinregrRun(b *testing.B, opts ...linregr.Option) {
	db := engine.Open(4)
	tbl, err := datagen.NewRegression(1, 100_000, 40, 0.1).LoadRegression(db, "reg")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linregr.Run(db, tbl, "y", "x", opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinregrRun(b *testing.B)    { benchLinregrRun(b) }
func BenchmarkLinregrRunV03(b *testing.B) { benchLinregrRun(b, linregr.WithVersion(linregr.V03)) }

// BenchmarkSQLSelectAgg measures the SQL front-end's parse+plan+execute
// overhead for a grouped filtered aggregate against the same query issued
// directly through the engine API. The delta is the declarative-surface
// tax the paper's §4.4(a) overhead study asks about.
func BenchmarkSQLSelectAgg(b *testing.B) {
	db := engine.Open(4)
	tbl, err := db.CreateTable("t", engine.Schema{
		{Name: "g", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRows; i++ {
		if err := tbl.Insert(int64(i%16), float64(i%1000)/1000); err != nil {
			b.Fatal(err)
		}
	}
	const query = `SELECT g, avg(v), count(*) FROM t WHERE v > 0.25 GROUP BY g`
	sess := sqlfe.NewSession(db)

	// reportCounterDeltas attaches metric-registry deltas (per op) to the
	// benchmark output — e.g. planhit/op 1.0 proves the loop really ran on
	// the cached plan, and joinhit/op the cached join materialization.
	// scripts/bench_check.sh prints these alongside the ns/op gate.
	counterBase := func(names ...string) []int64 {
		vals := make([]int64, len(names))
		for i, n := range names {
			vals[i] = db.Metrics().Counter(n).Value()
		}
		return vals
	}
	reportCounterDeltas := func(b *testing.B, base []int64, names []string, units []string) {
		b.StopTimer()
		for i, n := range names {
			delta := db.Metrics().Counter(n).Value() - base[i]
			b.ReportMetric(float64(delta)/float64(b.N), units[i])
		}
	}

	// Steady-state SQL: after the first execution the session's plan cache
	// serves the statement, so iterations measure compiled execution only.
	// The default lane is the vectorized column-batch pipeline.
	b.Run("SQL", func(b *testing.B) {
		if _, err := sess.Query(query); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		base := counterBase("sql_plan_cache_hits")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
		reportCounterDeltas(b, base, []string{"sql_plan_cache_hits"}, []string{"planhit/op"})
	})
	// The same statement in oracle mode: the same executor and morsel
	// driver with every consumer lowered to its row closure, so the
	// delta is kernels against closures in isolation.
	b.Run("SQLRowLane", func(b *testing.B) {
		rowSess := sqlfe.NewSession(db)
		rowSess.SetBatchExecution(false)
		if _, err := rowSess.Query(query); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := rowSess.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
	})
	// Cold path: parse + plan + execute every time (fresh session text).
	b.Run("SQLColdPlan", func(b *testing.B) {
		cold := sqlfe.NewSession(db)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cold.Run(mustParse(b, query))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
	})
	// PREPARE/EXECUTE with a $1 parameter in the WHERE clause.
	b.Run("SQLPrepared", func(b *testing.B) {
		if _, err := sess.Exec(`PREPARE bench_agg AS SELECT g, avg(v), count(*) FROM t WHERE v > $1 GROUP BY g`); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(`EXECUTE bench_agg(0.25)`)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
		b.StopTimer()
		if _, err := sess.Exec(`DEALLOCATE bench_agg`); err != nil {
			b.Fatal(err)
		}
	})
	// Morsel-parallel batch lane: a larger 8-segment table, so the worker
	// pool engages on multi-core runners (the table is far above
	// engine.ParallelRowThreshold; on GOMAXPROCS=1 the driver falls back
	// to the sequential in-line scan).
	b.Run("SQLParallel", func(b *testing.B) {
		pdb := engine.Open(8)
		ptbl, err := pdb.CreateTable("t", engine.Schema{
			{Name: "g", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8*benchRows; i++ {
			if err := ptbl.Insert(int64(i%16), float64(i%1000)/1000); err != nil {
				b.Fatal(err)
			}
		}
		psess := sqlfe.NewSession(pdb)
		if _, err := psess.Query(query); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := psess.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
	})
	// The grouped fold across many morsels: 64 int groups over 200,000
	// rows in 4 segments (52 morsels), every group in every morsel (Insert
	// deals rows to the segments in turn, so g steps once per deal), read
	// as the statement's typed product. Per-morsel or per-group-per-morsel
	// allocations show here; scripts/bench_check.sh gates its allocs/op.
	b.Run("SQLGroupByMorsels", func(b *testing.B) {
		gdb := engine.Open(4)
		gtbl, err := gdb.CreateTable("f", engine.Schema{
			{Name: "g", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
		})
		if err != nil {
			b.Fatal(err)
		}
		const rows = 200_000
		for i := 0; i < rows; i++ {
			if err := gtbl.Insert(int64(i/4*7%64), float64(i*37%1000)/1000); err != nil {
				b.Fatal(err)
			}
		}
		if m := len(gtbl.Morsels()); m < 16 {
			b.Fatalf("%d morsels, want at least 16", m)
		}
		gsess := sqlfe.NewSession(gdb)
		run := func() {
			sets, err := gsess.ExecRowSets(context.Background(),
				`SELECT g, count(*), sum(v), avg(v) FROM f WHERE v > 0.25 GROUP BY g`)
			if err != nil {
				b.Fatal(err)
			}
			if n := sets[0].NumRows(); n != 64 {
				b.Fatalf("groups = %d", n)
			}
		}
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	// The analytic top-N shape over many morsels: ORDER BY … LIMIT 100
	// of the 44 % of 200,000 rows a filter keeps. The morsels share one
	// cut, so most rows are dropped on their first key before the rest
	// of them is gathered. Read as the typed product.
	b.Run("SQLTopNMorsels", func(b *testing.B) {
		tdb := engine.Open(4)
		ttbl, err := tdb.CreateTable("facts", engine.Schema{
			{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int}, {Name: "v", Kind: engine.Float},
		})
		if err != nil {
			b.Fatal(err)
		}
		const rows = 200_000
		for i := 0; i < rows; i++ {
			if err := ttbl.Insert(int64(i), int64(i*31%64), float64(i*7919%100_000)/100); err != nil {
				b.Fatal(err)
			}
		}
		if m := len(ttbl.Morsels()); m < 40 {
			b.Fatalf("%d morsels, want at least 40", m)
		}
		tsess := sqlfe.NewSession(tdb)
		run := func() {
			sets, err := tsess.ExecRowSets(context.Background(),
				`SELECT id, v FROM facts WHERE g < 28 ORDER BY v DESC, id LIMIT 100`)
			if err != nil {
				b.Fatal(err)
			}
			if n := sets[0].NumRows(); n != 100 {
				b.Fatalf("rows = %d", n)
			}
		}
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	const joinQuery = `SELECT dims.name, sum(t.v), count(*) FROM t JOIN dims ON t.g = dims.g GROUP BY dims.name`
	// makeDims (re-)creates the 16-row dims table. A new table is a new
	// join input, so the engine's join cache cannot serve it.
	makeDims := func(b *testing.B) {
		_ = db.DropTable("dims") // absent on the first call
		dims, err := db.CreateTable("dims", engine.Schema{
			{Name: "g", Kind: engine.Int}, {Name: "name", Kind: engine.String},
		})
		if err != nil {
			b.Fatal(err)
		}
		for g := 0; g < 16; g++ {
			if err := dims.Insert(int64(g), fmt.Sprintf("g%02d", g)); err != nil {
				b.Fatal(err)
			}
		}
	}
	makeDims(b)
	// Joined aggregate, cold: every iteration re-plans and rebuilds the
	// join materialization (dims is re-created, untimed, before each),
	// measuring the full build+probe+aggregate pipeline.
	b.Run("SQLJoinAgg", func(b *testing.B) {
		joinSess := sqlfe.NewSession(db)
		st := mustParse(b, joinQuery)
		b.ReportAllocs()
		base := counterBase("sql_join_cache_misses")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			makeDims(b)
			b.StartTimer()
			res, err := joinSess.Run(st)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
		reportCounterDeltas(b, base, []string{"sql_join_cache_misses"}, []string{"joinmiss/op"})
	})
	// Joined aggregate, steady state: the plan cache serves the statement
	// and the join materialization cache skips the rebuild (neither input
	// changes), so iterations measure the aggregate over the cached temp
	// table only.
	b.Run("SQLJoinAggCached", func(b *testing.B) {
		joinSess := sqlfe.NewSession(db)
		if _, err := joinSess.Query(joinQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		base := counterBase("sql_plan_cache_hits", "sql_join_cache_hits")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := joinSess.Query(joinQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
		reportCounterDeltas(b, base, []string{"sql_plan_cache_hits", "sql_join_cache_hits"},
			[]string{"planhit/op", "joinhit/op"})
	})
	// Columnar projection: a filtered multi-item scan whose output rows
	// are gathered column-wise. The RowLane companion runs the statement
	// in oracle mode — same executor, same per-batch output cell arrays,
	// the filter and the three items as row closures — so the delta is
	// the column kernels against the closures and no longer includes the
	// materializer.
	const projQuery = `SELECT g, g + 1, v FROM t WHERE v > 0.5`
	const projRows = 4990
	b.Run("SQLProjScan", func(b *testing.B) {
		if _, err := sess.Query(projQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(projQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != projRows {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	b.Run("SQLProjScanRowLane", func(b *testing.B) {
		rowSess := sqlfe.NewSession(db)
		rowSess.SetBatchExecution(false)
		if _, err := rowSess.Query(projQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := rowSess.Query(projQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != projRows {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	// NULL-aware batch kernels: a LEFT JOIN aggregate where 6 of 16
	// groups are unmatched, so every expression runs under a validity
	// bitmap (count skips NULL names, the sum's addition propagates
	// NULL). Both lanes aggregate over the cached join materialization,
	// so the delta is the masked-fold vectorization alone.
	const leftJoinQuery = `SELECT count(ldims.name), sum(ldims.g + t.v), count(*) FROM t LEFT JOIN ldims ON t.g = ldims.g`
	ldims, err := db.CreateTable("ldims", engine.Schema{
		{Name: "g", Kind: engine.Int}, {Name: "name", Kind: engine.String},
	})
	if err != nil {
		b.Fatal(err)
	}
	for g := 0; g < 10; g++ {
		if err := ldims.Insert(int64(g), fmt.Sprintf("g%02d", g)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("SQLLeftJoinAgg", func(b *testing.B) {
		ljSess := sqlfe.NewSession(db)
		if _, err := ljSess.Query(leftJoinQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		base := counterBase("sql_join_cache_hits")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ljSess.Query(leftJoinQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
		reportCounterDeltas(b, base, []string{"sql_join_cache_hits"}, []string{"joinhit/op"})
	})
	b.Run("SQLLeftJoinAggRowLane", func(b *testing.B) {
		rowSess := sqlfe.NewSession(db)
		rowSess.SetBatchExecution(false)
		if _, err := rowSess.Query(leftJoinQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := rowSess.Query(leftJoinQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	// Window function over a filtered scan: the batch lane vectorizes
	// the gather (filter + partition/order keys); the fold stays
	// row-at-a-time on both lanes.
	const windowQuery = `SELECT g, sum(v) OVER (PARTITION BY g ORDER BY v) FROM t WHERE v > 0.25`
	b.Run("SQLWindow", func(b *testing.B) {
		if _, err := sess.Query(windowQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(windowQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 7490 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	// ORDER BY over the full table: parallel chunk sort + merge on
	// multi-core runners, one pdqsort on GOMAXPROCS=1 — output is
	// bit-identical either way.
	const orderByQuery = `SELECT g, v FROM t ORDER BY v, g`
	b.Run("SQLOrderBy", func(b *testing.B) {
		if _, err := sess.Query(orderByQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(orderByQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != benchRows {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	// The same sort, the analytic top-N shape (ORDER BY … LIMIT, a
	// bounded heap per morsel) and DISTINCT (1,498 of the 7,490 rows the
	// filter keeps), read as the statement's typed product, the way the
	// wire and CREATE TABLE AS sinks read it: allocs/op counts the output
	// tail, not Result's per-cell boxing, and scripts/bench_check.sh
	// gates it.
	for _, ob := range []struct {
		name, query string
		rows        int
	}{
		{"SQLOrderByTyped", orderByQuery, benchRows},
		{"SQLOrderByLimit", `SELECT g, v FROM t WHERE v > 0.25 ORDER BY v DESC, g LIMIT 100`, 100},
		{"SQLDistinct", `SELECT DISTINCT g, v FROM t WHERE v > 0.25`, 1498},
		// The window with typed output lanes, cut by a top-N over them.
		{"SQLWindowTyped", windowQuery + ` ORDER BY g LIMIT 100`, 100},
	} {
		b.Run(ob.name, func(b *testing.B) {
			run := func() {
				sets, err := sess.ExecRowSets(context.Background(), ob.query)
				if err != nil {
					b.Fatal(err)
				}
				if n := sets[0].NumRows(); n != ob.rows {
					b.Fatalf("rows = %d", n)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
	b.Run("ParseOnly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sqlfe.Parse(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same grouped filtered aggregate written by hand against the
	// engine's RunGroupByBatched: a hand-written engine baseline for what
	// the statement would cost with no front end at all.
	b.Run("EngineDirect", func(b *testing.B) {
		b.ReportAllocs()
		type acc struct {
			n   int64
			sum float64
		}
		for i := 0; i < b.N; i++ {
			groups, err := db.RunGroupByBatched(tbl,
				func(int) any { return map[engine.GroupKey]any{} },
				func(state any, cb engine.ColBatch) error {
					m := state.(map[engine.GroupKey]any)
					gs, vs := cb.Ints(0), cb.Floats(1)
					for j, v := range vs {
						if v <= 0.25 {
							continue
						}
						k := engine.GroupKey{Int: gs[j]}
						a, ok := m[k].(*acc)
						if !ok {
							a = &acc{}
							m[k] = a
						}
						a.n++
						a.sum += v
					}
					return nil
				},
				func(state any) map[engine.GroupKey]any { return state.(map[engine.GroupKey]any) },
				func(x, y any) any {
					a, c := x.(*acc), y.(*acc)
					a.n += c.n
					a.sum += c.sum
					return a
				})
			if err != nil {
				b.Fatal(err)
			}
			if len(groups) != 16 {
				b.Fatalf("groups = %d", len(groups))
			}
		}
	})
}

func mustParse(b *testing.B, query string) sqlfe.Statement {
	b.Helper()
	st, err := sqlfe.ParseStatement(query)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// --- Model-serving benchmarks (vectorized predict vs row lane) ---
//
// Both benchmarks score the same persisted model over the same table
// through the same cached plan; the only difference is the execution
// lane. scripts/bench_check.sh gates the same-run ratio at >= 2x.

func predictBenchSession(b *testing.B) *sqlfe.Session {
	b.Helper()
	db := engine.Open(4)
	tbl, err := db.CreateTable("pts", engine.Schema{
		{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
		{Name: "x1", Kind: engine.Float}, {Name: "x2", Kind: engine.Float},
		{Name: "x3", Kind: engine.Float}, {Name: "x4", Kind: engine.Float},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRows; i++ {
		f1 := float64(i%97) / 97
		f2 := float64(i%61) / 61
		f3 := float64(i%43) / 43
		f4 := float64(i%29) / 29
		y := f1 + 2*f2 - f3 + 0.5*f4
		if err := tbl.Insert(y, []float64{f1, f2, f3, f4}, f1, f2, f3, f4); err != nil {
			b.Fatal(err)
		}
	}
	sess := sqlfe.NewSession(db)
	if _, err := sess.Query(`SELECT (madlib.linregr('m', y, x)).* FROM pts`); err != nil {
		b.Fatal(err)
	}
	return sess
}

const predictBenchQuery = `SELECT count(*) FROM pts WHERE madlib.predict('m', x1, x2, x3, x4) > 1`

func benchSQLPredict(b *testing.B, batch bool) {
	sess := predictBenchSession(b)
	sess.SetBatchExecution(batch)
	// Warm the plan cache so iterations measure compiled scoring only.
	if _, err := sess.Query(predictBenchQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Query(predictBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkSQLPredictBatch(b *testing.B)   { benchSQLPredict(b, true) }
func BenchmarkSQLPredictRowLane(b *testing.B) { benchSQLPredict(b, false) }
