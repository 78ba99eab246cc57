package madlib_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"madlib/internal/engine"
	"madlib/internal/pgwire"
)

// BenchmarkPGWireConcurrent measures end-to-end throughput of the wire
// server under concurrent clients: N real TCP connections against one
// shared engine, each issuing a mix of simple-protocol reads, writes,
// and extended-protocol EXECUTE with parameters. One op = one statement
// round-trip, so ns/op captures protocol framing, session scheduling,
// the engine's reader/writer data latches, and the query itself — the
// serving tax on top of the in-process SQL numbers in
// BenchmarkSQLSelectAgg.
func BenchmarkPGWireConcurrent(b *testing.B) {
	const clients = 8

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

	srv := pgwire.NewServer(db, pgwire.Config{Listen: "127.0.0.1:0", MaxSessions: clients + 2})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	addr := srv.Addr().String()

	conns := make([]*pgwire.Client, clients)
	for i := range conns {
		c, err := pgwire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if err := c.Prepare("agg", "SELECT g, avg(v), count(*) FROM t WHERE v > $1 GROUP BY g", nil); err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}

	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()

	// Fixed-worker fan-out rather than RunParallel: each worker owns one
	// wire connection for its whole share of b.N, like a real client.
	var wg sync.WaitGroup
	var failed atomic.Value
	per := b.N / clients
	extra := b.N % clients
	for w := 0; w < clients; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(c *pgwire.Client, n int) {
			defer wg.Done()
			thresh := "0.25"
			for i := 0; i < n; i++ {
				var err error
				switch i % 4 {
				case 0, 1: // simple-protocol read
					_, err = c.Query("SELECT g, avg(v), count(*) FROM t WHERE v > 0.25 GROUP BY g")
				case 2: // simple-protocol write
					k := seq.Add(1)
					_, err = c.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, 0.5)", 16+k%16))
				case 3: // extended-protocol parameterized read
					_, err = c.Execute("agg", []*string{&thresh})
				}
				if err != nil {
					failed.Store(err)
					return
				}
			}
		}(conns[w], n)
	}
	wg.Wait()
	b.StopTimer()
	if err := failed.Load(); err != nil {
		b.Fatal(err)
	}
	// Sanity: the writes landed. b.N/clients-dependent, so only check > 0.
	if b.N >= 4 {
		res, err := conns[0].Query("SELECT count(*) FROM t WHERE g >= 16")
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := strconv.Atoi(*res.Rows[0][0]); n == 0 {
			b.Fatal("no benchmark inserts visible")
		}
	}
}

// BenchmarkPGWirePredict measures end-to-end model-serving throughput:
// concurrent wire clients scoring a catalog-persisted model through a
// prepared statement whose threshold parameter travels in binary
// float8. One op = one scoring round-trip, so ns/op is the QPS bound
// for predict-over-pgwire on this box.
func BenchmarkPGWirePredict(b *testing.B) {
	const clients = 8

	db := engine.Open(4)
	tbl, err := db.CreateTable("pts", engine.Schema{
		{Name: "y", Kind: engine.Float}, {Name: "x", Kind: engine.Vector},
		{Name: "x1", Kind: engine.Float}, {Name: "x2", Kind: engine.Float},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRows; i++ {
		f1 := float64(i%97) / 97
		f2 := float64(i%61) / 61
		if err := tbl.Insert(f1+2*f2, []float64{f1, f2}, f1, f2); err != nil {
			b.Fatal(err)
		}
	}

	srv := pgwire.NewServer(db, pgwire.Config{Listen: "127.0.0.1:0", MaxSessions: clients + 2})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	addr := srv.Addr().String()

	conns := make([]*pgwire.Client, clients)
	for i := range conns {
		c, err := pgwire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	// Train and persist once over the wire, then prepare the scoring
	// statement on every connection (sessions are per-connection).
	if _, err := conns[0].Query(`SELECT (madlib.linregr('m', y, x)).* FROM pts`); err != nil {
		b.Fatal(err)
	}
	const score = `SELECT count(*) FROM pts WHERE madlib.predict('m', x1, x2) > $1`
	for _, c := range conns {
		if err := c.Prepare("score", score, []int32{pgwire.OidFloat8}); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var failed atomic.Value
	per := b.N / clients
	extra := b.N % clients
	for w := 0; w < clients; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(c *pgwire.Client, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r, err := c.ExecuteParams("score", []pgwire.WireParam{
					pgwire.Float8Param(float64(i%3) / 2),
				})
				if err != nil {
					failed.Store(err)
					return
				}
				if len(r.Rows) != 1 {
					failed.Store(fmt.Errorf("rows = %d", len(r.Rows)))
					return
				}
			}
		}(conns[w], n)
	}
	wg.Wait()
	b.StopTimer()
	if err := failed.Load(); err != nil {
		b.Fatal(err)
	}
}

// bulkSpan is the result size of the bulk benchmarks: the repo
// benchmark's bulk_results statement at full size.
const bulkSpan = 20_000

// loadBulkFacts fills facts(id, g, v, label) with ten result spans of
// rows, the table the bulk statements select a tenth of.
func loadBulkFacts(b *testing.B, db *engine.DB) {
	b.Helper()
	tbl, err := db.CreateTable("facts", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int},
		{Name: "v", Kind: engine.Float}, {Name: "label", Kind: engine.String},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10*bulkSpan; i++ {
		if err := tbl.Insert(int64(i), int64(i%64), float64(i%100_000)/100, fmt.Sprintf("L%d", i%8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPGWireBulkSelect is the result path end to end on one
// connection: a prepared 20,000-row range select whose bound arrives as
// a binary int8, from the scan's typed chunks through DataRow encoding
// and the socket to the client's decoded rows. allocs/op counts server
// and client together; scripts/bench_check.sh gates it at two
// allocations per result row, which no per-cell or per-row boxing on
// either end of the wire fits under.
func BenchmarkPGWireBulkSelect(b *testing.B) {
	db := engine.Open(4)
	loadBulkFacts(b, db)
	srv := pgwire.NewServer(db, pgwire.Config{Listen: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c, err := pgwire.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	query := fmt.Sprintf("SELECT id, g, v, label FROM facts WHERE id >= $1 AND id < $1 + %d", bulkSpan)
	if err := c.Prepare("rng", query, []int32{pgwire.OidInt8}); err != nil {
		b.Fatal(err)
	}
	run := func(i int) {
		lo := int64(i%1024) * (9 * bulkSpan) / 1024
		r, err := c.ExecuteParams("rng", []pgwire.WireParam{pgwire.Int8Param(lo)})
		if err != nil {
			b.Fatal(err)
		}
		// Rows arrive in table order, segment by segment: the first is the
		// lowest selected id of segment 0.
		if first, _ := strconv.ParseInt(*r.Rows[0][0], 10, 64); len(r.Rows) != bulkSpan || first < lo || first >= lo+4 {
			b.Fatalf("rows = %d from id %d, want %d from %d", len(r.Rows), first, bulkSpan, lo)
		}
	}
	run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}
