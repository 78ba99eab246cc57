package sql

import (
	"context"
	"testing"

	"madlib/internal/engine"
)

// TestWindowFoldUnderConcurrentInserts runs a window query while a
// second session appends to its table. The gather and the fold read
// storage under one read latch on the table, so the race detector stays
// quiet, and every result is a consistent table prefix: within each
// partition the running sum adds exactly the row's own value.
func TestWindowFoldUnderConcurrentInserts(t *testing.T) {
	db := engine.Open(4)
	reader, writer := NewSession(db), NewSession(db)
	mustExec(t, reader, `CREATE TABLE w (g bigint, v double precision)`)
	tbl, err := db.Table("w")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2000
	for i := 0; i < seed; i++ {
		if err := tbl.Insert(int64(i%7), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, writer, `PREPARE ins AS INSERT INTO w VALUES ($1, $2)`)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := seed; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := writer.ExecutePreparedContext(context.Background(), "ins", []any{int64(i % 7), float64(i) + 0.5}); err != nil {
				done <- err
				return
			}
		}
	}()
	for q := 0; q < 20; q++ {
		r := mustQuery(t, reader, `SELECT g, v, sum(v) OVER (PARTITION BY g ORDER BY v) FROM w`)
		if len(r.Rows) < seed {
			t.Fatalf("query %d: %d rows, want at least %d", q, len(r.Rows), seed)
		}
		for i, row := range r.Rows {
			want := row[1].(float64)
			if i > 0 && r.Rows[i-1][0] == row[0] {
				want += r.Rows[i-1][2].(float64)
			}
			if row[2] != want {
				t.Fatalf("query %d row %d: running sum %v, want %v", q, i, row[2], want)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
