package sql

// Readers racing writers: what a statement sees of a table a concurrent
// INSERT is growing.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"madlib/internal/engine"
)

// TestScanBuffersAcrossMorselBoundary runs projection scans and
// aggregates while a writer keeps pushing a one-segment table from
// exactly MorselRows rows to one more, which adds a morsel. Every
// executor sizes its per-morsel buffers from the morsel count it scans,
// under the same latch, so the INSERT cannot land between the two and
// hand the scan a morsel index past them (which panics a pool goroutine
// and takes the process down). The writer refills the table while the
// readers wait at a gate, then lets them go and inserts the extra row
// after a varying delay, so the insert falls at every point of the
// readers' statements.
func TestScanBuffersAcrossMorselBoundary(t *testing.T) {
	withGOMAXPROCS(t, 4)
	db := engine.Open(1)
	tbl, err := db.CreateTable("t", engine.Schema{{Name: "x", Kind: engine.Int}, {Name: "g", Kind: engine.Int}})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT x FROM t WHERE x >= 0`,
		`SELECT count(*) FROM t WHERE x >= 0`,
		`SELECT g, sum(x) FROM t WHERE x >= 0 GROUP BY g`,
	}
	stop := make(chan struct{})
	var gate sync.RWMutex
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)) // one send per reader at most
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSession(db)
			for {
				select {
				case <-stop:
					return
				default:
				}
				gate.RLock()
				_, err := s.Query(q)
				gate.RUnlock()
				if err != nil {
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				}
			}
		}()
	}
	for round, deadline := 0, time.Now().Add(2*time.Second); time.Now().Before(deadline); round++ {
		gate.Lock()
		tbl.Truncate()
		for i := 0; i < engine.MorselRows; i++ {
			if err := tbl.Insert(int64(i), int64(i%3)); err != nil {
				t.Fatal(err)
			}
		}
		gate.Unlock()
		for start := time.Now(); time.Since(start) < time.Duration(round%64)*time.Microsecond; {
			runtime.Gosched()
		}
		if err := tbl.Insert(int64(-1), int64(0)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMultiRowInsertAtomic runs k-row INSERTs against readers counting
// the table: a statement's rows become visible all at once, so every
// count a reader sees is a multiple of k.
func TestMultiRowInsertAtomic(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const k = 4
	db := engine.Open(4)
	w := NewSession(db)
	mustExec(t, w, `CREATE TABLE t (x bigint)`)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 2
	errs := make(chan error, readers) // one send per reader at most
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSession(db)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := s.Query(`SELECT count(*) FROM t`)
				if err != nil {
					errs <- err
					return
				}
				if n := r.Rows[0][0].(int64); n%k != 0 {
					errs <- fmt.Errorf("count(*) = %d: saw part of a %d-row INSERT", n, k)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		mustExec(t, w, `INSERT INTO t VALUES (1), (2), (3), (4)`)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
