package pgwire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"madlib/internal/engine"
	"madlib/internal/sql"
)

// rawConn is a frontend that sees the backend's messages as they arrive
// on the wire, for tests about the byte stream itself.
type rawConn struct {
	t           *testing.T
	nc          net.Conn
	r           *bufio.Reader
	w           *bufio.Writer
	pid, secret int32
}

// newRawConn completes the startup handshake over nc.
func newRawConn(t *testing.T, nc net.Conn) *rawConn {
	t.Helper()
	c := &rawConn{t: t, nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	startup := newMsg(0)
	startup.int32(protocolVersion)
	startup.cstring("user")
	startup.cstring("madlib")
	startup.byte(0)
	c.exchange([]*msgBuf{startup}, func(typ byte, body []byte) {
		if typ == msgBackendKeyData {
			c.pid = int32(binary.BigEndian.Uint32(body))
			c.secret = int32(binary.BigEndian.Uint32(body[4:]))
		}
	})
	return c
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return newRawConn(t, nc)
}

// send writes frontend messages in one flush.
func (c *rawConn) send(msgs []*msgBuf) {
	c.t.Helper()
	for _, m := range msgs {
		if err := m.writeTo(c.w); err != nil {
			c.t.Fatal(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// exchange sends msgs and hands every backend message up to and
// including ReadyForQuery to record; body is only good during the call.
func (c *rawConn) exchange(msgs []*msgBuf, record func(typ byte, body []byte)) {
	c.t.Helper()
	c.send(msgs)
	var buf []byte
	for {
		typ, body, err := readMessageInto(c.r, buf)
		if err != nil {
			c.t.Fatalf("reading backend stream: %v", err)
		}
		if cap(body) > cap(buf) {
			buf = body
		}
		record(typ, body)
		if typ == msgReadyForQuery {
			return
		}
	}
}

// countingConn counts the bytes a server was asked to write.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// servePipe serves one connection over an in-memory pipe and returns the
// client end after its handshake. Pipe writes complete only when read,
// so the server can never run ahead of the test, and the pipe's own
// synchronisation orders the test's reads of connection state after the
// writes it observed. served closes when the handler has returned.
func servePipe(t *testing.T, srv *Server) (c *rawConn, sc *countingConn, served <-chan struct{}) {
	t.Helper()
	client, server := net.Pipe()
	sc = &countingConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(sc)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return newRawConn(t, client), sc, done
}

const bigRows = 400_000

// seedBig fills big(i, s, v) with bigRows rows through the engine.
func seedBig(t *testing.T, db *engine.DB) *engine.Table {
	t.Helper()
	tbl, err := db.CreateTable("big", engine.Schema{
		{Name: "i", Kind: engine.Int}, {Name: "s", Kind: engine.String}, {Name: "v", Kind: engine.Vector},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bigRows; i++ {
		if err := tbl.Insert(int64(i), fmt.Sprintf("row%d", i%1000), []float64{float64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// slowPredicate is a WHERE clause every row of big passes, with no batch
// kernel (a Vector operand) and some 60 math calls per row: the gather of
// a 400,000-row select under it runs for a few hundred milliseconds, long
// enough for a CancelRequest sent at its first morsel to land inside it.
func slowPredicate() string {
	x := "array_get(v, 1) + 1"
	for i := 0; i < 30; i++ {
		x = "exp(ln(" + x + "))"
	}
	return x + " > 0"
}

// rowDescriptionOIDs parses the type OIDs out of a RowDescription body.
func rowDescriptionOIDs(t *testing.T, body []byte) []int32 {
	t.Helper()
	r := &reader{body: body}
	oids := make([]int32, r.int16())
	for i := range oids {
		r.cstring()
		r.int32()
		r.int16()
		oids[i] = r.int32()
		r.int16()
		r.int32()
		r.int16()
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return oids
}

// TestRowDescriptionTypes pins where RowDescription takes its type OIDs
// from: the plan's static kinds on the simple and the Describe path
// alike, so an empty result, a NULL first cell and a prepared statement
// are typed like a full result; only a column whose kind the values
// alone tell falls back to the first row, and to text without one.
func TestRowDescriptionTypes(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dialRaw(t, addr)
	describe := func(msgs []*msgBuf) (oids []int32, rows int) {
		t.Helper()
		c.exchange(msgs, func(typ byte, body []byte) {
			switch typ {
			case msgRowDescription:
				oids = rowDescriptionOIDs(t, body)
			case msgDataRow:
				rows++
			case msgErrorResponse:
				t.Fatal(parseWireError(body))
			}
		})
		return oids, rows
	}
	describe(simpleQ(`CREATE TABLE t (id bigint, v double precision, label text, b boolean, vec double precision[]);
INSERT INTO t VALUES (1, 1.5, 'a', true, {1}), (2, 2.5, 'b', false, {2});
CREATE TABLE dims (id bigint, name text, w double precision);
INSERT INTO dims VALUES (2, 'two', 0.5)`))
	all := []int32{oidInt8, oidFloat8, oidText, oidBool, oidFloat8Array}
	for _, tc := range []struct {
		name string
		msgs []*msgBuf
		oids []int32
		rows int
	}{
		{"full", simpleQ(`SELECT id, v, label, b, vec FROM t`), all, 2},
		{"empty", simpleQ(`SELECT id, v, label, b, vec FROM t WHERE id < 0`), all, 0},
		{"empty ordered", simpleQ(`SELECT id, v, label, b, vec FROM t WHERE id < 0 ORDER BY id`), all, 0},
		{"empty aggregate", simpleQ(`SELECT label, count(*), avg(v), max(b) FROM t WHERE id < 0 GROUP BY label`), []int32{oidText, oidInt8, oidFloat8, oidBool}, 0},
		{"empty window", simpleQ(`SELECT id, row_number() OVER (PARTITION BY b ORDER BY id), sum(v) OVER (PARTITION BY b ORDER BY id) FROM t WHERE id < 0`), []int32{oidInt8, oidInt8, oidFloat8}, 0},
		{"left join, NULL first", simpleQ(`SELECT t.id, dims.name, dims.w, dims.id FROM t LEFT JOIN dims ON t.id = dims.id`), []int32{oidInt8, oidText, oidFloat8, oidInt8}, 2},
		{"left join, empty", simpleQ(`SELECT dims.name, dims.w FROM t LEFT JOIN dims ON t.id = dims.id WHERE t.id < 0`), []int32{oidText, oidFloat8}, 0},
		{"describe portal", extendedQ(`SELECT id, v, label, b, vec FROM t WHERE id > $1`, nil, []string{"0"}, nil, 'P'), all, 2},
		{"describe statement, empty", extendedQ(`SELECT id, v, label, b, vec FROM t WHERE id > $1`, nil, []string{"9"}, nil, 'S'), all, 0},
		{"describe left join", extendedQ(`SELECT dims.name, dims.w FROM t LEFT JOIN dims ON t.id = dims.id WHERE t.id < $1`, nil, []string{"9"}, nil, 'P'), []int32{oidText, oidFloat8}, 2},
		{"describe aggregate", extendedQ(`SELECT count(*), sum(id), avg(v) FROM t WHERE v > $1`, nil, []string{"0"}, nil, 'P'), []int32{oidInt8, oidInt8, oidFloat8}, 1},
		// Genuinely dynamic: $1 + 1 is bigint or double precision by its
		// argument. The simple path has no parameters, so only Describe
		// meets it, before any value exists.
		{"describe dynamic", extendedQ(`SELECT $1 + 1, id FROM t`, nil, []string{"1"}, nil, 'P'), []int32{oidText, oidInt8}, 2},
		// A table-valued call's shape is only known once it ran: typed by
		// the schema the method returns with its rows.
		{"function result", simpleQ(`SELECT (madlib.profile()).* FROM dims`), []int32{oidText, oidText, oidInt8, oidInt8, oidFloat8, oidFloat8, oidFloat8}, 3},
	} {
		oids, rows := describe(tc.msgs)
		if !reflect.DeepEqual(oids, tc.oids) || rows != tc.rows {
			t.Errorf("%s: OIDs %v with %d rows, want %v with %d rows", tc.name, oids, rows, tc.oids, tc.rows)
		}
	}
}

// TestDisconnectMidResult drops the client a few kilobytes into a
// 400,000-row result. The encode loop stops at its next hand-off to the
// socket instead of rendering the other nine megabytes, and the session
// returns to the pool with latches, temp tables and goroutines where
// they were.
func TestDisconnectMidResult(t *testing.T) {
	srv, db, addr := startServer(t, Config{})
	tbl := seedBig(t, db)
	admin := dialT(t, addr)
	stat := func(query string) string {
		t.Helper()
		r, err := admin.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		return cell(r, 0, 0)
	}
	temps := stat(`SELECT count(*) FROM madlib_stats_tables WHERE temp`)
	goroutines := runtime.NumGoroutine()
	for _, query := range []string{
		`SELECT i, s FROM big`,                 // typed chunks, one per morsel
		`SELECT i, s FROM big ORDER BY i DESC`, // one boxed chunk of 400,000 rows
	} {
		c, sc, served := servePipe(t, srv)
		before := sc.n.Load()
		c.send(simpleQ(query))
		const taken = 64 << 10
		if _, err := io.ReadFull(c.r, make([]byte, taken)); err != nil {
			t.Fatal(err)
		}
		c.nc.Close()
		select {
		case <-served:
		case <-time.After(30 * time.Second):
			t.Fatal("handler still running after the client went away")
		}
		// What the server tried to write after the client stopped reading:
		// the hand-off in flight and whatever bufio held, not the result.
		if extra := sc.n.Load() - before - taken; extra > 4*encFlushBytes {
			t.Errorf("%s: %d bytes written past the disconnect, want at most a few hand-offs of %d", query, extra, encFlushBytes)
		}
	}
	srv.pool.mu.Lock()
	free, total := len(srv.pool.free), srv.pool.total
	srv.pool.mu.Unlock()
	if free != total-1 { // admin holds the one session in use
		t.Errorf("session pool: %d of %d free, want all but the admin connection's", free, total)
	}
	// A writer gets the exclusive latch the scans shared.
	wrote := make(chan error, 1)
	go func() { wrote <- tbl.Insert(int64(-1), "late", []float64{0}) }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read latch leaked: INSERT still blocked")
	}
	if got := stat(`SELECT count(*) FROM madlib_stats_tables WHERE temp`); got != temps {
		t.Errorf("%s temp tables after the disconnects, %s before", got, temps)
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after the disconnects, %d before", got, goroutines)
	}
}

// TestCancelDuringGatherSendsNoRows cancels a 400,000-row select while
// its gather is running: chunks are released to the socket only after
// the gather succeeded, so the client sees 57014 and ReadyForQuery and
// not one row of the partial result.
func TestCancelDuringGatherSendsNoRows(t *testing.T) {
	_, db, addr := startServer(t, Config{})
	seedBig(t, db)
	c := dialRaw(t, addr)
	before := db.RowsScanned()
	c.send(simpleQ(`SELECT i, s FROM big WHERE ` + slowPredicate()))
	for deadline := time.Now().Add(10 * time.Second); db.RowsScanned() == before && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	canceller := &Client{addr: addr, pid: c.pid, secret: c.secret}
	if err := canceller.Cancel(); err != nil {
		t.Fatal(err)
	}
	var stream []byte
	var wireErr error
	c.exchange(nil, func(typ byte, body []byte) {
		if len(stream) < 8 {
			stream = append(stream, typ)
		}
		if typ == msgErrorResponse {
			wireErr = parseWireError(body)
		}
	})
	if wireErr == nil {
		t.Skip("the scan finished before the cancel landed")
	}
	if we := wireErr.(*WireError); we.Code != codeQueryCanceled {
		t.Fatalf("sqlstate %s (%s), want 57014", we.Code, we.Message)
	}
	if string(stream) != "EZ" {
		t.Fatalf("backend sent %q before ReadyForQuery, want ErrorResponse alone", stream)
	}
	if scanned := db.RowsScanned() - before; scanned >= bigRows {
		t.Errorf("scanned %d rows: the cancel landed after the last morsel, not inside the gather", scanned)
	}
	// The connection still serves, and the rows arrive when not cancelled.
	rows := 0
	c.exchange(simpleQ(`SELECT i FROM big WHERE i < 5000`), func(typ byte, _ []byte) {
		if typ == msgDataRow {
			rows++
		}
	})
	if rows != 5000 {
		t.Fatalf("%d rows after the cancel, want 5000", rows)
	}
}

// TestEncodeBufferStaysChunkSized sends 400,000-row results — typed
// chunks and one boxed chunk — and then looks at the connection's encode
// buffer: it was handed to the socket every encFlushBytes and reused, not
// grown to the result and pinned.
func TestEncodeBufferStaysChunkSized(t *testing.T) {
	srv, db, _ := startServer(t, Config{})
	seedBig(t, db)
	c, _, _ := servePipe(t, srv)
	srv.mu.Lock()
	sc := srv.conns[c.pid]
	srv.mu.Unlock()
	for _, query := range []string{`SELECT i, s FROM big`, `SELECT i, s FROM big ORDER BY i DESC`} {
		rows, bytes := 0, 0
		c.exchange(simpleQ(query), func(typ byte, body []byte) {
			if typ == msgDataRow {
				rows++
				bytes += 5 + len(body)
			}
		})
		if rows != bigRows {
			t.Fatalf("%s: %d rows, want %d", query, rows, bigRows)
		}
		// The pipe ordered this read after the handler's last write.
		if got := cap(sc.enc); got > 2*encFlushBytes {
			t.Errorf("%s: encode buffer holds %d bytes after a %d-byte result, want at most %d", query, got, bytes, 2*encFlushBytes)
		}
	}
}

// TestWireSinkAllocations gates the allocations of the result path from
// the scan to the socket, per result row: executing the prepared 20,000-
// row range select into typed chunks and rendering them as DataRows.
func TestWireSinkAllocations(t *testing.T) {
	const rows = 20_000
	db := engine.Open(4)
	tbl, err := db.CreateTable("facts", engine.Schema{
		{Name: "id", Kind: engine.Int}, {Name: "g", Kind: engine.Int},
		{Name: "v", Kind: engine.Float}, {Name: "label", Kind: engine.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*rows; i++ {
		if err := tbl.Insert(int64(i), int64(i%64), float64(i%100_000)/100, fmt.Sprintf("L%d", i%8)); err != nil {
			t.Fatal(err)
		}
	}
	sess := sql.NewSession(db)
	if _, err := sess.Exec(fmt.Sprintf(`PREPARE rng AS SELECT id, g, v, label FROM facts WHERE id >= $1 AND id < $1 + %d`, rows)); err != nil {
		t.Fatal(err)
	}
	c := &conn{w: bufio.NewWriterSize(io.Discard, 8192)}
	run := func() {
		rs, err := sess.ExecutePreparedRowSet(context.Background(), "rng", []any{int64(70_000)})
		if err != nil || rs.NumRows() != rows {
			t.Fatalf("rows = %d, err = %v", rs.NumRows(), err)
		}
		c.writeRowSet(rs, false)
	}
	run() // warm the plan's scratch pool and the encode buffer
	if perRow := testing.AllocsPerRun(20, run) / rows; perRow > 0.1 {
		t.Errorf("%.3f allocations per result row from scan to socket, want at most 0.1", perRow)
	}
	// And what it rendered is the result.
	var out strings.Builder
	c.w = bufio.NewWriter(&out)
	run()
	c.w.Flush()
	dataRows := 0
	for stream := out.String(); len(stream) >= 5; {
		if stream[0] == msgDataRow {
			dataRows++
		}
		stream = stream[1+binary.BigEndian.Uint32([]byte(stream[1:5])):]
	}
	if dataRows != rows {
		t.Errorf("rendered stream holds %d DataRows, want %d", dataRows, rows)
	}
}
