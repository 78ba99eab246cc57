package pgwire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"madlib/internal/engine"
)

// startServer boots a server on an ephemeral port against a fresh
// 4-segment engine and tears it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *engine.DB, string) {
	t.Helper()
	db := engine.Open(4)
	cfg.Listen = "127.0.0.1:0"
	srv := NewServer(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, db, srv.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func cell(r *ClientResult, i, j int) string {
	if i >= len(r.Rows) || j >= len(r.Rows[i]) {
		return "<missing>"
	}
	if r.Rows[i][j] == nil {
		return "<null>"
	}
	return *r.Rows[i][j]
}

// seedFanoutTable builds big(v, grp) with grp = v % (rows/256), so a
// self-join on grp produces 256 matches per row — slow enough to land a
// cancel or timeout mid-query.
func seedFanoutTable(t *testing.T, c *Client, db *engine.DB, rows int) {
	t.Helper()
	if _, err := c.Query(`CREATE TABLE seed (v bigint)`); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("seed")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctas := fmt.Sprintf(`CREATE TABLE big AS SELECT v, v %% %d AS grp FROM seed`, rows/256)
	if _, err := c.Query(ctas); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeAndSimpleQuery(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialT(t, addr)
	if c.BackendPID() == 0 {
		t.Fatal("no backend pid assigned")
	}

	if _, err := c.Query(`CREATE TABLE t (a bigint, b text)`); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(`INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tag != "INSERT 0 3" {
		t.Fatalf("tag = %q", r.Tag)
	}
	r, err = c.Query(`SELECT a, b FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cols) != 2 || r.Cols[0] != "a" || r.Cols[1] != "b" {
		t.Fatalf("cols = %v", r.Cols)
	}
	if r.Tag != "SELECT 3" || len(r.Rows) != 3 {
		t.Fatalf("tag=%q rows=%d", r.Tag, len(r.Rows))
	}
	if cell(r, 0, 0) != "1" || cell(r, 0, 1) != "one" {
		t.Fatalf("row 0 = %q %q", cell(r, 0, 0), cell(r, 0, 1))
	}

	// NULL (from an unmatched LEFT JOIN row) travels as the -1 length
	// sentinel, not as an empty string.
	if _, err := c.Query(`CREATE TABLE u (a bigint, w text)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`INSERT INTO u VALUES (1, 'x')`); err != nil {
		t.Fatal(err)
	}
	r, err = c.Query(`SELECT t.b, u.w FROM t LEFT JOIN u ON t.a = u.a ORDER BY t.a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 || r.Rows[0][1] == nil || *r.Rows[0][1] != "x" {
		t.Fatalf("join rows = %v", r.Rows)
	}
	if r.Rows[1][1] != nil || r.Rows[2][1] != nil {
		t.Fatalf("want NULL for unmatched rows, got %v", r.Rows)
	}

	// Multi-statement simple query returns the last result.
	r, err = c.Query(`SELECT 1; SELECT count(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cols[0] != "n" || cell(r, 0, 0) != "3" {
		t.Fatalf("multi-statement result = %v %q", r.Cols, cell(r, 0, 0))
	}

	// Empty query string gets EmptyQueryResponse, not an error.
	if _, err := c.Query(`  ;  `); err != nil {
		t.Fatal(err)
	}
}

func TestErrorKeepsConnectionUsable(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialT(t, addr)

	_, err := c.Query(`SELEC syntax error`)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WireError", err)
	}
	if we.Code != "42601" {
		t.Fatalf("sqlstate = %q, want 42601 (got message %q)", we.Code, we.Message)
	}

	_, err = c.Query(`SELECT * FROM no_such_table`)
	if !errors.As(err, &we) || we.Code != "XX000" {
		t.Fatalf("err = %v, want XX000", err)
	}

	// The same connection still answers queries.
	r, err := c.Query(`SELECT 42 AS v`)
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != "42" {
		t.Fatalf("v = %q", cell(r, 0, 0))
	}

	// An integer literal beyond int64 errors loudly instead of
	// silently becoming a float.
	if _, err := c.Query(`SELECT 99999999999999999999`); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("overflow literal err = %v", err)
	}
}

func TestExtendedQueryWithParams(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialT(t, addr)

	if _, err := c.Query(`CREATE TABLE kv (k bigint, v double precision)`); err != nil {
		t.Fatal(err)
	}

	// INSERT through the extended protocol with $n parameters.
	if err := c.Prepare("ins", `INSERT INTO kv VALUES ($1, $2)`, []int32{oidInt8, oidFloat8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprint(i), fmt.Sprintf("%g", float64(i)*1.5)
		r, err := c.Execute("ins", []*string{&k, &v})
		if err != nil {
			t.Fatal(err)
		}
		if r.Tag != "INSERT 0 1" {
			t.Fatalf("tag = %q", r.Tag)
		}
	}

	// SELECT with a parameter; types inferred (no declared OIDs).
	if err := c.Prepare("sel", `SELECT count(*) AS n, sum(v) AS s FROM kv WHERE k < $1`, nil); err != nil {
		t.Fatal(err)
	}
	arg := "4"
	r, err := c.Execute("sel", []*string{&arg})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cols) != 2 || r.Cols[0] != "n" || r.Cols[1] != "s" {
		t.Fatalf("cols = %v", r.Cols)
	}
	if cell(r, 0, 0) != "4" || cell(r, 0, 1) != "9" {
		t.Fatalf("row = %q %q", cell(r, 0, 0), cell(r, 0, 1))
	}

	// Re-executing the same portal-less statement works repeatedly.
	arg = "100"
	r, err = c.Execute("sel", []*string{&arg})
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != "10" {
		t.Fatalf("count = %q", cell(r, 0, 0))
	}

	// NULLs produced by a LEFT JOIN cross the extended protocol too.
	if _, err := c.Query(`CREATE TABLE tags (k bigint, name text)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`INSERT INTO tags VALUES (0, 'zero')`); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("selj",
		`SELECT a.k, b.name FROM kv a LEFT JOIN tags b ON a.k = b.k WHERE a.k < $1 ORDER BY a.k`,
		[]int32{oidInt8}); err != nil {
		t.Fatal(err)
	}
	arg = "2"
	r, err = c.Execute("selj", []*string{&arg})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1] == nil || *r.Rows[0][1] != "zero" {
		t.Fatalf("join rows = %v", r.Rows)
	}
	if r.Rows[1][1] != nil {
		t.Fatalf("want NULL for unmatched row, got %q", *r.Rows[1][1])
	}

	// Unknown prepared statement errors but keeps the connection.
	if _, err := c.Execute("nope", nil); err == nil {
		t.Fatal("want error for unknown statement")
	}
	if _, err := c.Query(`SELECT 1`); err != nil {
		t.Fatalf("connection unusable after extended-protocol error: %v", err)
	}

	// ClosePrepared releases the name for reuse.
	if err := c.ClosePrepared("sel"); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("sel", `SELECT k FROM kv WHERE k = $1`, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedStatementErrorAtParse(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialT(t, addr)
	// Planning is eager: a bad table name fails at Parse, not Execute.
	err := c.Prepare("bad", `SELECT * FROM missing_table`, nil)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WireError", err)
	}
	// Duplicate named statement is rejected.
	if err := c.Prepare("dup", `SELECT 1`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("dup", `SELECT 2`, nil); err == nil {
		t.Fatal("want duplicate-name error")
	}
}

func TestCancelMidScan(t *testing.T) {
	_, db, addr := startServer(t, Config{})
	c := dialT(t, addr)

	total := 16 * engine.MorselRows
	seedFanoutTable(t, c, db, total)

	// A fan-out self-join (each row matches 256 others) keeps the probe
	// busy long enough for the cancel to land mid-scan.
	before := db.RowsScanned()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(`SELECT count(*) FROM big a JOIN big b ON a.grp = b.grp`)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	var err error
	select {
	case err = <-errc:
	case <-time.After(30 * time.Second):
		t.Fatal("query did not return after cancel")
	}
	fullOutput := int64(total) * 256 // join rows a completed query scans for count(*)
	var we *WireError
	if errors.As(err, &we) {
		if we.Code != "57014" {
			t.Fatalf("sqlstate = %q (%s), want 57014", we.Code, we.Message)
		}
		// The scan stopped early: a completed query would have scanned
		// both join inputs plus the full materialized join output.
		if scanned := db.RowsScanned() - before; scanned >= fullOutput {
			t.Fatalf("scanned %d rows, want < %d (cancel did not stop the scan)", scanned, fullOutput)
		}
	} else if err != nil {
		t.Fatalf("unexpected error: %v", err)
	} // else: the query finished before the cancel landed — legal race.

	// The connection survives the cancel.
	r, err := c.Query(`SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != fmt.Sprint(total) {
		t.Fatalf("count = %q", cell(r, 0, 0))
	}
}

// TestCancelRowClosureScan cancels a scan whose predicate has no batch
// kernel (a Vector operand: it runs as a row closure inside the batch
// executor, and used to run on a segment-granular driver; slowPredicate
// keeps the gather long now that emitting rows costs little). The
// CancelRequest is sent once the scan is under way; the statement ends
// with 57014 short of a full scan, and latches, temp tables and
// goroutines are back at their baseline on a still usable connection.
func TestCancelRowClosureScan(t *testing.T) {
	_, db, addr := startServer(t, Config{})
	c := dialT(t, addr)
	const total = 400_000
	if _, err := c.Query(`CREATE TABLE big (i bigint, v double precision[])`); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := tbl.Insert(int64(i), []float64{float64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	tables := db.TableNames()
	goroutines := runtime.NumGoroutine()
	before := db.RowsScanned()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(`SELECT i FROM big WHERE ` + slowPredicate())
		errc <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); db.RowsScanned() == before && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case err = <-errc:
	case <-time.After(30 * time.Second):
		t.Fatal("query did not return after cancel")
	}
	var we *WireError
	if errors.As(err, &we) {
		if we.Code != "57014" {
			t.Fatalf("sqlstate = %q (%s), want 57014", we.Code, we.Message)
		}
		if scanned := db.RowsScanned() - before; scanned >= total {
			t.Fatalf("scanned %d rows, want < %d (cancel did not stop the scan)", scanned, total)
		}
	} else if err != nil {
		t.Fatalf("unexpected error: %v", err)
	} // else: the scan finished before the cancel landed — legal race.

	// A write takes the exclusive latch the scan shared; the connection
	// and its session still serve it.
	if _, err := c.Query(`INSERT INTO big VALUES (-1, ARRAY[0])`); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(`SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != fmt.Sprint(total+1) {
		t.Fatalf("count = %q", cell(r, 0, 0))
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
}

func TestStatementTimeout(t *testing.T) {
	_, db, addr := startServer(t, Config{StatementTimeout: 50 * time.Millisecond})
	c := dialT(t, addr)

	seedFanoutTable(t, c, db, 16*engine.MorselRows)
	_, err := c.Query(`SELECT count(*) FROM big a JOIN big b ON a.grp = b.grp`)
	var we *WireError
	if !errors.As(err, &we) || we.Code != "57014" {
		t.Fatalf("err = %v, want SQLSTATE 57014", err)
	}
	// Fast statements still succeed under the same timeout.
	if _, err := c.Query(`SELECT 1`); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPoolExhaustion(t *testing.T) {
	_, _, addr := startServer(t, Config{MaxSessions: 2})
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)
	if _, err := c1.Query(`SELECT 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Query(`SELECT 1`); err != nil {
		t.Fatal(err)
	}
	_, err := Dial(addr)
	var we *WireError
	if !errors.As(err, &we) || we.Code != "53300" {
		t.Fatalf("third connection err = %v, want SQLSTATE 53300", err)
	}
	// Closing one connection frees a slot (give the server a moment to
	// recycle the session).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(addr)
		if err == nil {
			defer c3.Close()
			if _, err := c3.Query(`SELECT 1`); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSessionRecycleDropsPrepared(t *testing.T) {
	_, _, addr := startServer(t, Config{MaxSessions: 1})
	c1 := dialT(t, addr)
	if err := c1.Prepare("mine", `SELECT 1`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query(`PREPARE plain AS SELECT 2`); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(addr)
		if err == nil {
			// The recycled session must not leak c1's statements.
			if _, err := c2.Query(`EXECUTE plain`); err == nil {
				t.Fatal("prepared statement leaked across connections")
			}
			c2.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never recycled: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSSLRequestNegotiation(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// SSLRequest: len 8, code 80877103 → server answers 'N' and waits
	// for a plaintext startup.
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], 8)
	binary.BigEndian.PutUint32(buf[4:], sslRequestCode)
	if _, err := nc.Write(buf[:]); err != nil {
		t.Fatal(err)
	}
	var reply [1]byte
	if _, err := nc.Read(reply[:]); err != nil {
		t.Fatal(err)
	}
	if reply[0] != 'N' {
		t.Fatalf("SSLRequest reply = %q, want 'N'", reply[0])
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	db := engine.Open(4)
	srv := NewServer(db, Config{Listen: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`CREATE TABLE t (v bigint)`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// New connections are refused after shutdown.
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestConcurrentConnections(t *testing.T) {
	_, _, addr := startServer(t, Config{MaxSessions: 32})
	setup := dialT(t, addr)
	if _, err := setup.Query(`CREATE TABLE acc (id bigint, bal double precision)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := setup.Query(fmt.Sprintf(`INSERT INTO acc VALUES (%d, %d)`, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			stmt := fmt.Sprintf("w%d", w)
			if err := c.Prepare(stmt, `SELECT count(*) AS n FROM acc WHERE id < $1`, []int32{oidInt8}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0: // read, simple protocol
					r, err := c.Query(`SELECT sum(bal) FROM acc WHERE id < 50`)
					if err != nil {
						errs <- err
						return
					}
					if len(r.Rows) != 1 {
						errs <- fmt.Errorf("worker %d: %d rows", w, len(r.Rows))
						return
					}
				case 1: // write
					if _, err := c.Query(fmt.Sprintf(`INSERT INTO acc VALUES (%d, 0)`, 1000+w*iters+i)); err != nil {
						errs <- err
						return
					}
				case 2: // extended-protocol EXECUTE
					arg := "50"
					r, err := c.Execute(stmt, []*string{&arg})
					if err != nil {
						errs <- err
						return
					}
					if cell(r, 0, 0) != "50" {
						errs <- fmt.Errorf("worker %d: count = %q", w, cell(r, 0, 0))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All writes landed: 100 seed rows + workers*ceil(iters/3) inserts.
	inserts := 0
	for i := 0; i < iters; i++ {
		if i%3 == 1 {
			inserts++
		}
	}
	r, err := setup.Query(`SELECT count(*) FROM acc`)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(100 + workers*inserts)
	if cell(r, 0, 0) != want {
		t.Fatalf("final count = %q, want %s", cell(r, 0, 0), want)
	}
}

func TestMetricsCounters(t *testing.T) {
	_, db, addr := startServer(t, Config{})
	c := dialT(t, addr)
	if _, err := c.Query(`SELECT 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`this is not sql`); err == nil {
		t.Fatal("want error")
	}
	reg := db.Metrics()
	if v := reg.Counter("pgwire_connections").Value(); v < 1 {
		t.Fatalf("pgwire_connections = %d", v)
	}
	if v := reg.Counter("pgwire_queries").Value(); v < 1 {
		t.Fatalf("pgwire_queries = %d", v)
	}
	if v := reg.Counter("pgwire_errors").Value(); v < 1 {
		t.Fatalf("pgwire_errors = %d", v)
	}
	// The counters surface through the SQL metrics view too.
	r, err := c.Query(`SELECT count(*) FROM madlib_stats_counters WHERE name = 'pgwire_queries'`)
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != "1" {
		t.Fatalf("pgwire_queries missing from madlib_stats_counters: %q", cell(r, 0, 0))
	}
}

func TestBinaryBindParams(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialT(t, addr)

	if _, err := c.Query(`CREATE TABLE kv (k bigint, v double precision)`); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("ins", `INSERT INTO kv VALUES ($1, $2)`, []int32{oidInt8, oidFloat8}); err != nil {
		t.Fatal(err)
	}

	// int8 and float8 travel as raw network-order bytes; the float is
	// chosen to be inexact in decimal so a text round-trip would differ
	// if the server re-parsed rather than taking the IEEE-754 bits.
	if _, err := c.ExecuteParams("ins", []WireParam{Int8Param(-7), Float8Param(0.1)}); err != nil {
		t.Fatal(err)
	}
	// Mixed formats in one Bind: binary int8, text float8.
	if _, err := c.ExecuteParams("ins", []WireParam{Int8Param(8), TextParam("2.5")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("sel", `SELECT v FROM kv WHERE k = $1`, []int32{oidInt8}); err != nil {
		t.Fatal(err)
	}
	r, err := c.ExecuteParams("sel", []WireParam{Int8Param(-7)})
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != "0.1" {
		t.Fatalf("binary float8 round trip = %q, want 0.1", cell(r, 0, 0))
	}
	if r, err = c.ExecuteParams("sel", []WireParam{Int8Param(8)}); err != nil || cell(r, 0, 0) != "2.5" {
		t.Fatalf("mixed-format row = %v (err %v)", r, err)
	}
	// NULL in a binary-format position decodes to NULL before any codec
	// runs.
	if err := c.Prepare("echo", `SELECT $1`, []int32{oidFloat8}); err != nil {
		t.Fatal(err)
	}
	if r, err = c.ExecuteParams("echo", []WireParam{{Binary: true}}); err != nil || len(r.Rows) != 1 || r.Rows[0][0] != nil {
		t.Fatalf("binary NULL param rows = %v (err %v)", r, err)
	}

	// Wrong width is rejected with a clean error; connection survives.
	if _, err := c.ExecuteParams("sel", []WireParam{{Binary: true, Data: []byte{1, 2, 3}}}); err == nil {
		t.Fatal("want error for 3-byte binary int8")
	} else if !strings.Contains(err.Error(), "8 bytes") {
		t.Fatalf("error = %v", err)
	}

	// Binary format for a type with no binary codec is rejected.
	if err := c.Prepare("selt", `SELECT count(*) FROM kv WHERE k = $1`, []int32{oidText}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteParams("selt", []WireParam{{Binary: true, Data: []byte("x")}}); err == nil {
		t.Fatal("want error for binary text param")
	} else if !strings.Contains(err.Error(), "binary format not supported") {
		t.Fatalf("error = %v", err)
	}

	if _, err := c.Query(`SELECT 1`); err != nil {
		t.Fatalf("connection unusable after binary-param errors: %v", err)
	}
}

func TestPredictOverWire(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialT(t, addr)

	for _, q := range []string{
		`CREATE TABLE pts (y double precision, x double precision[], x1 double precision)`,
		`INSERT INTO pts VALUES (3, ARRAY[1], 1), (6, ARRAY[2], 2), (9, ARRAY[3], 3), (12, ARRAY[4], 4)`,
	} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Train and persist over the wire; the ack row carries the catalog
	// metadata.
	r, err := c.Query(`SELECT (madlib.linregr('m', y, x)).* FROM pts`)
	if err != nil {
		t.Fatal(err)
	}
	if cell(r, 0, 0) != "m" || cell(r, 0, 1) != "linregr" {
		t.Fatalf("persist ack = %v", r.Rows)
	}

	// Serve predictions through a prepared statement whose threshold
	// arrives as a binary float8. The fit is y = 3x, so scores are
	// ~{3, 6, 9, 12}.
	if err := c.Prepare("score",
		`SELECT count(*) FROM pts WHERE madlib.predict('m', x1) > $1`, []int32{oidFloat8}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		thresh float64
		want   string
	}{{0, "4"}, {5, "3"}, {10, "1"}, {100, "0"}} {
		r, err := c.ExecuteParams("score", []WireParam{Float8Param(tc.thresh)})
		if err != nil {
			t.Fatal(err)
		}
		if cell(r, 0, 0) != tc.want {
			t.Fatalf("predict > %g: count = %q, want %s", tc.thresh, cell(r, 0, 0), tc.want)
		}
	}
}
