package kmeans

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"

	"madlib/internal/datagen"
	"madlib/internal/engine"
)

// matchCentroids greedily pairs found centroids to true centers and returns
// the worst pairing distance.
func matchCentroids(found, truth [][]float64) float64 {
	used := make([]bool, len(truth))
	worst := 0.0
	for _, f := range found {
		best, bi := math.Inf(1), -1
		for i, c := range truth {
			if used[i] {
				continue
			}
			var d float64
			for j := range c {
				diff := c[j] - f[j]
				d += diff * diff
			}
			if d < best {
				best, bi = d, i
			}
		}
		if bi >= 0 {
			used[bi] = true
		}
		if s := math.Sqrt(best); s > worst {
			worst = s
		}
	}
	return worst
}

func wellSeparated(t *testing.T, seed int64) (*engine.DB, *engine.Table, *datagen.Clusters) {
	t.Helper()
	db := engine.Open(4)
	gen := datagen.NewClusters(seed, 3000, 4, 3, 0.4)
	tbl, err := gen.Load(db, "points")
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl, gen
}

func TestUDAOnlyFindsClusters(t *testing.T) {
	db, tbl, gen := wellSeparated(t, 1)
	res, err := Run(db, tbl, "coords", Options{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if worst := matchCentroids(res.Centroids, gen.Centers); worst > 0.5 {
		t.Fatalf("worst centroid error %v", worst)
	}
	if res.Iterations < 1 || res.Iterations > 50 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	var total int64
	for _, s := range res.Sizes {
		total += s
	}
	if total != 3000 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestAssignmentTablePattern(t *testing.T) {
	db, tbl, gen := wellSeparated(t, 2)
	res, err := Run(db, tbl, "coords", Options{K: 4, Pattern: AssignmentTable, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if worst := matchCentroids(res.Centroids, gen.Centers); worst > 0.5 {
		t.Fatalf("worst centroid error %v", worst)
	}
	// The assignment column must now hold the final clustering: every
	// point's stored id must be the closest centroid.
	bad := 0
	err = db.ForEachSegment(tbl, func(_ int, r engine.Row) error {
		if j, _ := Closest(res.Centroids, r.Vector(0)); r.Int(1) != int64(j) {
			bad++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The loop may stop with a small fraction still moving.
	if bad > 30 {
		t.Fatalf("%d stale assignments", bad)
	}
}

func TestPatternsAgree(t *testing.T) {
	db, tbl, _ := wellSeparated(t, 3)
	a, err := Run(db, tbl, "coords", Options{K: 4, Pattern: UDAOnly, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(db, tbl, "coords", Options{K: 4, Pattern: AssignmentTable, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Same data, same seeding → same local optimum.
	if worst := matchCentroids(a.Centroids, b.Centroids); worst > 1e-6 {
		t.Fatalf("patterns diverge by %v", worst)
	}
}

func TestObjectiveDecreases(t *testing.T) {
	db, tbl, _ := wellSeparated(t, 4)
	res, err := Run(db, tbl, "coords", Options{K: 4, Seeding: Random, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	hist := res.ObjectiveHistory
	for i := 1; i < len(hist); i++ {
		if hist[i] > hist[i-1]*1.000001 {
			t.Fatalf("objective increased at %d: %v", i, hist)
		}
	}
}

func TestPlusPlusBeatsRandomOnAverage(t *testing.T) {
	// k-means++ should rarely produce a catastrophically bad seeding on
	// well-separated clusters; compare best-of-3 objectives loosely.
	db, tbl, _ := wellSeparated(t, 5)
	bestPP, bestRand := math.Inf(1), math.Inf(1)
	for s := int64(0); s < 3; s++ {
		pp, err := Run(db, tbl, "coords", Options{K: 4, Seeding: PlusPlus, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Run(db, tbl, "coords", Options{K: 4, Seeding: Random, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		bestPP = math.Min(bestPP, pp.Objective)
		bestRand = math.Min(bestRand, rd.Objective)
	}
	if bestPP > bestRand*5 {
		t.Fatalf("k-means++ best %v wildly worse than random best %v", bestPP, bestRand)
	}
}

func TestClosest(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 0}}
	j, d2 := Closest(cents, []float64{1, 0})
	if j != 0 || d2 != 1 {
		t.Fatalf("Closest = %d, %v", j, d2)
	}
	j, _ = Closest(cents, []float64{9, 0})
	if j != 1 {
		t.Fatalf("Closest = %d", j)
	}
}

func TestK1(t *testing.T) {
	db := engine.Open(2)
	gen := datagen.NewClusters(6, 100, 1, 2, 1.0)
	tbl, _ := gen.Load(db, "points")
	res, err := Run(db, tbl, "coords", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 1 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	// Single centroid must be the global mean.
	var mean [2]float64
	for _, p := range gen.Points {
		mean[0] += p[0]
		mean[1] += p[1]
	}
	mean[0] /= 100
	mean[1] /= 100
	if math.Abs(res.Centroids[0][0]-mean[0]) > 1e-9 || math.Abs(res.Centroids[0][1]-mean[1]) > 1e-9 {
		t.Fatalf("centroid %v != mean %v", res.Centroids[0], mean)
	}
}

func TestErrors(t *testing.T) {
	db := engine.Open(2)
	tbl, _ := db.CreateTable("p", engine.Schema{{Name: "coords", Kind: engine.Vector}})
	if err := tbl.Insert([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db, tbl, "coords", Options{K: 5}); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := Run(db, tbl, "coords", Options{K: 0}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := Run(db, tbl, "nope", Options{K: 1}); err == nil {
		t.Fatal("missing column should fail")
	}
	if _, err := Run(db, tbl, "coords", Options{K: 1, Pattern: AssignmentTable}); err == nil {
		t.Fatal("AssignmentTable without Int column should fail")
	}
}

func TestDuplicatePointsSeeding(t *testing.T) {
	// All points identical: k-means++ must still return K centroids.
	db := engine.Open(2)
	tbl, _ := db.CreateTable("p", engine.Schema{{Name: "coords", Kind: engine.Vector}})
	for i := 0; i < 10; i++ {
		if err := tbl.Insert([]float64{3, 3}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(db, tbl, "coords", Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	if res.Objective > 1e-12 {
		t.Fatalf("objective = %v for identical points", res.Objective)
	}
}

func TestSizesOrdering(t *testing.T) {
	// Verify Sizes corresponds to Centroids indices: biggest planted
	// cluster should map to the centroid nearest its center.
	db := engine.Open(3)
	tbl, _ := db.CreateTable("p", engine.Schema{{Name: "coords", Kind: engine.Vector}})
	// 80 points near (0,0), 20 near (10,10).
	for i := 0; i < 80; i++ {
		if err := tbl.Insert([]float64{float64(i%5) * 0.01, 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Insert([]float64{10, 10 + float64(i%5)*0.01}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(db, tbl, "coords", Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := append([]int64(nil), res.Sizes...)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	if sizes[0] != 80 || sizes[1] != 20 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
}

func BenchmarkUDAOnly(b *testing.B) {
	db := engine.Open(4)
	gen := datagen.NewClusters(7, 20000, 8, 4, 0.5)
	tbl, _ := gen.Load(db, "points")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(db, tbl, "coords", Options{K: 8, Seed: 1, MaxIterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignmentTable(b *testing.B) {
	db := engine.Open(4)
	gen := datagen.NewClusters(7, 20000, 8, 4, 0.5)
	tbl, _ := gen.Load(db, "points")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(db, tbl, "coords", Options{K: 8, Seed: 1, MaxIterations: 10, Pattern: AssignmentTable}); err != nil {
			b.Fatal(err)
		}
	}
}

// A fixed seed must repeat bit for bit however the scan workers race:
// this is madlib.kmeans(coords, 5, 7) at the repo benchmark's pts size,
// repeated with a four-worker pool. The clusters overlap (std 8 on a
// lattice of pitch 2), so where Lloyd's iteration ends depends on where
// the seeding starts. Before the per-morsel seeds were derived from the
// morsel's position, the seeding RNGs were handed out in worker start
// order and the centroids drifted between runs.
func TestFixedSeedRepeatsUnderWorkerPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := engine.Open(4)
	tbl, err := datagen.NewClusters(3, 20000, 5, 8, 8).Load(db, "pts")
	if err != nil {
		t.Fatal(err)
	}
	if db.ScanWorkers(tbl) < 2 {
		t.Fatal("table too small to engage the worker pool")
	}
	var first *Result
	for run := 0; run < 20; run++ {
		res, err := Run(db, tbl, "coords", Options{K: 5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Iterations != first.Iterations {
			t.Fatalf("run %d: %d iterations, first run %d", run, res.Iterations, first.Iterations)
		}
		for j, c := range res.Centroids {
			for d, v := range c {
				if math.Float64bits(v) != math.Float64bits(first.Centroids[j][d]) {
					t.Fatalf("run %d: centroid %d[%d] = %v, first run %v", run, j, d, v, first.Centroids[j][d])
				}
			}
		}
	}
}
