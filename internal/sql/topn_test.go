package sql

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// newTopNDB loads the table TestTopNAgrees cuts: big spans at least 16
// morsels, and its first ORDER BY keys tie heavily across them — f takes
// seven values (both zeros, NaN and +Inf among them), v about 2,000
// (NaN and -0 among them), i 300 and s 50. r covers only some of big's
// g values, so a LEFT JOIN pads the rest with NULLs.
func newTopNDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open(2)
	big, err := db.CreateTable("big", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int}, {Name: "i", Kind: engine.Int},
		{Name: "f", Kind: engine.Float}, {Name: "v", Kind: engine.Float}, {Name: "s", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, 7, math.Inf(1)}
	rng := rand.New(rand.NewSource(41))
	for id := 0; id < 16*engine.MorselRows+3000; id++ {
		v := float64(rng.Intn(2000))/8 - 100
		switch rng.Intn(100) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Copysign(0, -1)
		}
		err := big.Insert(int64(id), int64(rng.Intn(10)), int64(rng.Intn(300)),
			floats[rng.Intn(len(floats))], v, fmt.Sprintf("s%02d", rng.Intn(50)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if m := len(big.Morsels()); m < 16 {
		t.Fatalf("big has %d morsels, want at least 16", m)
	}
	r, err := db.CreateTable("r", engine.Schema{
		{Name: "g", Kind: engine.Int}, {Name: "w", Kind: engine.Float}, {Name: "name", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 7; g++ {
		if err := r.Insert(int64(g), floats[g], fmt.Sprintf("n%d", g%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// cellBits renders a value exactly: a float by its bits, so that NaN,
// -0 and the last bit of a running sum all count.
func cellBits(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("float:%016x", math.Float64bits(f))
	}
	return fmt.Sprintf("%T:%v", v, v)
}

func rowsBits(rows [][]any) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			b.WriteString(cellBits(v))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTopNAgrees checks ORDER BY … LIMIT k, cut by the top-N bound the
// scan's morsels share and by the window's typed output lanes, against
// the same statement sorted in full without LIMIT and cut to k, bit for
// bit and error text included, at LIMIT 0, 1, 100 and above n, in
// default and oracle mode at GOMAXPROCS 1, 2 and 4.
func TestTopNAgrees(t *testing.T) {
	db := newTopNDB(t)
	const (
		join = "big LEFT JOIN r ON big.g = r.g"
		over = "OVER (PARTITION BY big.g ORDER BY big.f, big.i)"
		// The filters keep a few hundred rows of every morsel, enough
		// to fill a 100-row heap in each, and the full sorts small.
		few  = " WHERE i < 30"
		some = " WHERE big.id % 12 = 0"
	)
	queries := []string{
		"SELECT id, v FROM big ORDER BY v DESC, id",
		"SELECT id, v, s FROM big" + few + " ORDER BY v, id DESC",
		"SELECT id, f FROM big" + few + " ORDER BY f",
		"SELECT id, f FROM big" + few + " ORDER BY f DESC, v, id",
		"SELECT s, id FROM big" + few + " ORDER BY s DESC, f, id",
		"SELECT id, g FROM big WHERE i > 270 ORDER BY i, v DESC, id",
		"SELECT id FROM big" + few + " ORDER BY v DESC, i, id",
		"SELECT id, v * 2, i + 1, s FROM big" + few + " ORDER BY v DESC, id",
		"SELECT big.id, r.w FROM " + join + " WHERE big.i < 30 ORDER BY r.w DESC, big.id",
		"SELECT big.id, r.w FROM " + join + " WHERE big.i < 30 ORDER BY r.w, big.id DESC",
		"SELECT big.id, r.name FROM " + join + " WHERE big.i < 30 ORDER BY r.name, big.id",
		"SELECT big.id, r.name FROM " + join + " WHERE big.i < 30 ORDER BY r.name DESC, big.v",
		// Every row is evaluated, so the row the cut drops still fails.
		"SELECT id, 100 / (id - 4321) FROM big ORDER BY v DESC, id",
		"SELECT big.id, row_number() " + over + ", rank() " + over + ", count(r.w) " + over +
			", count(*) " + over + ", sum(r.w) " + over + ", avg(big.v) " + over + ", sum(big.i) " + over +
			", big.s FROM " + join + some + " ORDER BY big.id",
		"SELECT big.id, rank() " + over + " AS rk, sum(big.v) " + over + " FROM " + join + some + " ORDER BY rk DESC, big.id",
		"SELECT big.id, row_number() " + over + " * 2 + big.i, sum(big.v * 2) " + over + ", avg(big.i + 1) " + over +
			" FROM " + join + some + " ORDER BY big.id DESC",
		"SELECT big.id, rank() " + over + ", count(r.name) " + over + " FROM " + join + some + " ORDER BY big.v DESC, big.id",
		"SELECT big.id, sum(big.v) " + over + ", 100 / (big.id - 4008) FROM " + join + some + " ORDER BY big.id",
	}
	// The reference: each statement sorted in full, once, sequentially
	// and on row closures only.
	type full struct {
		rows [][]any
		err  error
	}
	refs := make([]full, len(queries))
	func() {
		withGOMAXPROCS(t, 1)
		sess := NewSession(db)
		sess.SetBatchExecution(false)
		for i, q := range queries {
			res, err := sess.Query(q)
			refs[i].err = err
			if err == nil {
				refs[i].rows = res.Rows
			}
		}
	}()
	for _, procs := range []int{1, 2, 4} {
		for _, oracle := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/oracle=%v", procs, oracle), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				sess := NewSession(db)
				sess.SetBatchExecution(!oracle)
				for i, q := range queries {
					ref := refs[i]
					for _, k := range []int{0, 1, 100, 100000} {
						lq := fmt.Sprintf("%s LIMIT %d", q, k)
						res, err := sess.Query(lq)
						switch {
						case ref.err != nil:
							if err == nil || err.Error() != ref.err.Error() {
								t.Fatalf("%s: error %v, want %v", lq, err, ref.err)
							}
						case err != nil:
							t.Fatalf("%s: %v", lq, err)
						default:
							if got, want := rowsBits(res.Rows), rowsBits(ref.rows[:min(k, len(ref.rows))]); got != want {
								t.Fatalf("%s\n--- got ---\n%s--- full sort, cut ---\n%s", lq, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestTopNPrunedCounter reads sql_topn_rows_pruned off a top-N scan over
// many morsels: the morsels' shared cut drops rows before they are
// gathered, and the statement's answer is unchanged.
func TestTopNPrunedCounter(t *testing.T) {
	withGOMAXPROCS(t, 2)
	db := newTopNDB(t)
	sess := NewSession(db)
	pruned := func() int64 {
		res := mustExec(t, sess, `SELECT value FROM madlib_stats_counters WHERE name = 'sql_topn_rows_pruned'`)[0]
		if len(res.Rows) == 0 {
			return 0
		}
		return res.Rows[0][0].(int64)
	}
	if n := pruned(); n != 0 {
		t.Fatalf("sql_topn_rows_pruned = %d before any top-N", n)
	}
	const q = "SELECT id, v FROM big ORDER BY v DESC, id"
	full := mustExec(t, sess, q)[0]
	top := mustExec(t, sess, q+" LIMIT 10")[0]
	if got, want := rowsBits(top.Rows), rowsBits(full.Rows[:10]); got != want {
		t.Fatalf("top-N\n%s\nwant\n%s", got, want)
	}
	// Each morsel offers its rows to the cut only after its last batch,
	// so the morsels that finish first prune nothing; every later one
	// drops nearly all of its rows.
	rows := int64(len(full.Rows))
	if n := pruned(); n < rows/2 || n > rows-10 {
		t.Fatalf("sql_topn_rows_pruned = %d of %d rows", n, rows)
	}
	// Without LIMIT nothing is pruned.
	before := pruned()
	mustExec(t, sess, q)
	if n := pruned(); n != before {
		t.Fatalf("sql_topn_rows_pruned moved %d → %d on a full sort", before, n)
	}
}
