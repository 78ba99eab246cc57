package sql

// Context plumbing: Session.ExecContext/QueryContext hand their context
// to the engine's scan drivers, so cancellation reaches a running scan.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"madlib/internal/engine"
)

func bigIntTable(t *testing.T, s *Session, rows int) {
	t.Helper()
	tbl, err := s.DB().CreateTable("big", engine.Schema{
		{Name: "v", Kind: engine.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryContextCancelled(t *testing.T) {
	s := newSession(t)
	bigIntTable(t, s, 4*engine.MorselRows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := s.DB().RowsScanned()
	_, err := s.QueryContext(ctx, `SELECT sum(v) FROM big`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.DB().RowsScanned() - before; got != 0 {
		t.Fatalf("scanned %d rows under a cancelled context", got)
	}
	// The session stays usable after a cancelled query.
	r, err := s.QueryContext(context.Background(), `SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].(int64) != int64(4*engine.MorselRows) {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// poll on. The scan drivers poll once per morsel boundary, so a scan is
// cancelled in mid-flight at a reproducible point.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelAtMorselBoundary cancels the statements whose consumers lower
// to row closures (the shapes that used to scan on segment-granular
// drivers), native int- and text-keyed grouped aggregates, and a
// table-valued call whose WHERE clause stages its input, in the middle
// of a 400k-row scan: each returns context.Canceled having scanned less
// than one segment, and latches, temp tables, goroutines and the pooled
// morsel states are back at their baseline afterwards.
func TestCancelAtMorselBoundary(t *testing.T) {
	const rows = 400_000
	s := newSession(t)
	db := s.DB()
	tbl, err := db.CreateTable("big", engine.Schema{
		{Name: "i", Kind: engine.Int}, {Name: "v", Kind: engine.Vector},
		{Name: "g", Kind: engine.Int}, {Name: "s", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]float64{{0}, {1}, {2}}
	strs := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i), vecs[i%3], int64(i%7), strs[i%5]); err != nil {
			t.Fatal(err)
		}
	}
	perSegment := int64(rows / len(tbl.Segments()))
	for _, procs := range []int{1, 4} {
		for _, q := range []string{
			`SELECT i FROM big WHERE array_get(v, 1) >= 0`,
			`SELECT v, count(array_get(v, 1)) FROM big GROUP BY v`,
			`SELECT g, count(*), sum(i) FROM big WHERE i > 7 GROUP BY g`,
			`SELECT s, min(i), avg(i) FROM big GROUP BY s`,
			`SELECT row_number() OVER (PARTITION BY v ORDER BY i) FROM big WHERE array_get(v, 1) >= 0`,
			`SELECT (madlib.profile()).* FROM big WHERE array_get(v, 1) >= 0`,
		} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, q), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				tables := db.TableNames()
				goroutines := runtime.NumGoroutine()
				before := db.RowsScanned()
				_, err := s.QueryContext(&cancelAfter{Context: context.Background(), n: 4}, q)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if got := db.RowsScanned() - before; got == 0 || got >= perSegment {
					t.Fatalf("scanned %d rows before the cancel took effect, want 0 < n < %d (one segment)", got, perSegment)
				}
				// The shared data latch is released: a writer gets through.
				done := make(chan error, 1)
				go func() { done <- tbl.Insert(int64(-1), vecs[0], int64(0), strs[0]) }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("INSERT blocked: the cancelled scan leaked its read latch")
				}
				if got := morselsOut.Load(); got != 0 {
					t.Fatalf("%d morsel states not back in their pool", got)
				}
				if got := db.TableNames(); !reflect.DeepEqual(got, tables) {
					t.Fatalf("catalog after cancel = %v, want %v", got, tables)
				}
				for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
					time.Sleep(10 * time.Millisecond)
				}
				if got := runtime.NumGoroutine(); got > goroutines {
					t.Fatalf("%d goroutines after cancel, %d before", got, goroutines)
				}
			})
		}
	}
}

func TestExecutePreparedContext(t *testing.T) {
	s := newSession(t)
	bigIntTable(t, s, 100)
	mustExec(t, s, `PREPARE q AS SELECT count(*) FROM big WHERE v < $1`)
	r, err := s.ExecutePreparedContext(context.Background(), "q", []any{int64(50)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].(int64) != 50 {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
	// Wrong arity errors; cancelled context aborts.
	if _, err := s.ExecutePreparedContext(context.Background(), "q", nil); err == nil {
		t.Fatal("want arity error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecutePreparedContext(ctx, "q", []any{int64(50)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDescribePrepared(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE pt (a bigint, b text)`)
	mustExec(t, s, `PREPARE sel AS SELECT a, b AS label FROM pt WHERE a > $1`)
	n, cols, types, err := s.DescribePrepared("sel")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(cols) != 2 || cols[0] != "a" || cols[1] != "label" {
		t.Fatalf("describe = %d params, cols %v", n, cols)
	}
	if len(types) != 2 || types[0] != "bigint" || types[1] != "text" {
		t.Fatalf("describe types = %v, want [bigint text]", types)
	}
	mustExec(t, s, `PREPARE ins AS INSERT INTO pt VALUES ($1, $2)`)
	n, cols, _, err = s.DescribePrepared("ins")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || cols != nil {
		t.Fatalf("insert describe = %d params, cols %v", n, cols)
	}
	if _, _, _, err := s.DescribePrepared("nope"); err == nil {
		t.Fatal("want error for unknown prepared statement")
	}
}
