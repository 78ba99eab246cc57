package pgwire

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madlib/internal/engine"
	"madlib/internal/metrics"
	"madlib/internal/sql"
)

// Config tunes a Server.
type Config struct {
	// Listen is the TCP address to bind, e.g. ":5432" or "127.0.0.1:0".
	Listen string
	// MaxSessions bounds concurrent connections (each holds one SQL
	// session). Further connections are refused with SQLSTATE 53300.
	// Zero means 64.
	MaxSessions int
	// StatementTimeout aborts any single statement that runs longer,
	// with SQLSTATE 57014. Zero means no timeout.
	StatementTimeout time.Duration
	// Logf, when set, receives one line per notable server event.
	Logf func(format string, args ...any)
}

// Server speaks the PostgreSQL wire protocol over TCP for one shared
// engine database. Connections are handled concurrently; each draws a
// *sql.Session from a bounded pool for the life of the connection.
type Server struct {
	db   *engine.DB
	cfg  Config
	pool *sessionPool

	ln      net.Listener
	mu      sync.Mutex
	conns   map[int32]*conn
	closed  bool
	drain   bool
	nextPID atomic.Int32
	wg      sync.WaitGroup

	connections *metrics.Counter
	queries     *metrics.Counter
	errorsCtr   *metrics.Counter
}

// NewServer wires a server to db. Call Start to begin listening.
func NewServer(db *engine.DB, cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	reg := db.Metrics()
	return &Server{
		db:          db,
		cfg:         cfg,
		pool:        &sessionPool{db: db, max: cfg.MaxSessions},
		conns:       make(map[int32]*conn),
		connections: reg.Counter("pgwire_connections"),
		queries:     reg.Counter("pgwire_queries"),
		errorsCtr:   reg.Counter("pgwire_errors"),
	}
}

// Start binds the listen address and serves connections until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("pgwire: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("pgwire: listening on %s", ln.Addr())
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// Shutdown drains the server: the listener closes, idle connections are
// dropped, and busy connections finish their in-flight statement and are
// then told 57P01 (admin shutdown). When ctx expires first, remaining
// queries are cancelled and sockets force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.drain = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range conns {
			c.abortActive()
			c.nc.Close()
		}
		<-done
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) register(c *conn) {
	s.mu.Lock()
	s.conns[c.pid] = c
	s.mu.Unlock()
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c.pid)
	s.mu.Unlock()
}

// cancelBackend services a wire CancelRequest: if the (pid, secret) pair
// matches a live connection, its active query's context is cancelled.
// Mismatches are ignored silently, as in PostgreSQL.
func (s *Server) cancelBackend(pid, secret int32) {
	s.mu.Lock()
	c := s.conns[pid]
	s.mu.Unlock()
	if c != nil && c.secret == secret {
		c.abortActive()
	}
}

// sessionPool bounds live sessions and recycles them across connections.
// A returned session is wiped (DEALLOCATE ALL) before reuse so one
// client's prepared statements never leak into the next.
type sessionPool struct {
	db    *engine.DB
	max   int
	mu    sync.Mutex
	free  []*sql.Session
	total int
}

var errPoolFull = errors.New("pgwire: too many connections")

func (p *sessionPool) acquire() (*sql.Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		sess := p.free[n-1]
		p.free = p.free[:n-1]
		return sess, nil
	}
	if p.total >= p.max {
		return nil, errPoolFull
	}
	p.total++
	return sql.NewSession(p.db), nil
}

func (p *sessionPool) release(sess *sql.Session) {
	_, _ = sess.Run(&sql.Deallocate{All: true})
	p.mu.Lock()
	p.free = append(p.free, sess)
	p.mu.Unlock()
}

// preparedStmt is one client-visible prepared statement. Plannable
// statements (SELECT/INSERT) live in the session under sessName via the
// session's PREPARE machinery; everything else keeps its AST here and is
// planned at Execute.
type preparedStmt struct {
	sessName  string
	stmt      sql.Statement
	query     string
	numParams int
	cols      []string
	types     []string // SQL type names of cols, from the plan
	paramOIDs []int32
	empty     bool
}

type portal struct {
	ps     *preparedStmt
	params []any
}

type frontendMsg struct {
	typ  byte
	body []byte
	err  error
}

// conn is one client connection. A dedicated reader goroutine parses
// frontend messages into msgs so the main loop can be mid-query and the
// connection still notices a dropped socket (the reader fails and aborts
// the active statement's context).
type conn struct {
	srv    *Server
	nc     net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	sess   *sql.Session
	pid    int32
	secret int32

	msgs chan frontendMsg
	done chan struct{} // closed when serveLoop exits
	gone atomic.Bool   // reader saw EOF/reset

	mu           sync.Mutex
	activeCancel context.CancelFunc
	draining     bool

	prepared map[string]*preparedStmt
	portals  map[string]*portal

	// enc is the DataRow encode buffer, reused across statements;
	// writeRowSet hands it to the socket whenever it passes encFlushBytes,
	// so it stays that size however large a result is.
	enc []byte
}

func (c *conn) beginDrain() {
	c.mu.Lock()
	busy := c.activeCancel != nil
	c.draining = true
	c.mu.Unlock()
	if !busy {
		// Idle: the main loop is blocked on the reader; closing the
		// socket unblocks it.
		c.nc.Close()
	}
}

func (c *conn) abortActive() {
	c.mu.Lock()
	cancel := c.activeCancel
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (c *conn) setActive(cancel context.CancelFunc) {
	c.mu.Lock()
	c.activeCancel = cancel
	c.mu.Unlock()
}

func (c *conn) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	c := &conn{
		srv:      s,
		nc:       nc,
		r:        bufio.NewReaderSize(nc, 8192),
		w:        bufio.NewWriterSize(nc, 8192),
		prepared: make(map[string]*preparedStmt),
		portals:  make(map[string]*portal),
	}
	if !c.handshake() {
		return
	}
	defer s.logf("pgwire: conn %d closed", c.pid)

	sess, err := s.pool.acquire()
	if err != nil {
		c.writeError(codeTooManyConns, "too many connections", true)
		c.w.Flush()
		return
	}
	c.sess = sess
	defer s.pool.release(sess)

	s.connections.Inc()
	s.register(c)
	defer s.unregister(c)

	c.writeGreeting()
	if c.w.Flush() != nil {
		return
	}

	c.msgs = make(chan frontendMsg, 64)
	c.done = make(chan struct{})
	go c.readLoop()
	c.serveLoop()
	close(c.done)
}

// handshake consumes startup-phase packets. It returns false when the
// connection should close without serving queries (cancel requests,
// read errors, protocol mismatch).
func (c *conn) handshake() bool {
	for {
		var head [8]byte
		if _, err := readFullDeadline(c.nc, c.r, head[:]); err != nil {
			return false
		}
		n := int(binary.BigEndian.Uint32(head[:4]))
		code := int32(binary.BigEndian.Uint32(head[4:]))
		if n < 8 || n-8 > maxMessageLen {
			return false
		}
		rest := make([]byte, n-8)
		if _, err := readFullDeadline(c.nc, c.r, rest); err != nil {
			return false
		}
		switch code {
		case sslRequestCode, gssEncReqCode:
			// No TLS/GSS support: reply 'N', client retries plaintext.
			if _, err := c.nc.Write([]byte{'N'}); err != nil {
				return false
			}
		case cancelReqCode:
			if len(rest) == 8 {
				pid := int32(binary.BigEndian.Uint32(rest[:4]))
				secret := int32(binary.BigEndian.Uint32(rest[4:]))
				c.srv.cancelBackend(pid, secret)
			}
			return false
		case protocolVersion:
			c.pid = c.srv.nextPID.Add(1)
			var sec [4]byte
			if _, err := rand.Read(sec[:]); err != nil {
				return false
			}
			c.secret = int32(binary.BigEndian.Uint32(sec[:]))
			return true
		default:
			c.writeError(codeProtocolViolation,
				fmt.Sprintf("unsupported protocol %d.%d", code>>16, code&0xffff), true)
			c.w.Flush()
			return false
		}
	}
}

// readFullDeadline reads exactly len(buf) bytes with a 30s startup
// deadline so half-open handshakes cannot pin a connection slot forever.
func readFullDeadline(nc net.Conn, r *bufio.Reader, buf []byte) (int, error) {
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	defer nc.SetReadDeadline(time.Time{})
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (c *conn) writeGreeting() {
	m := newMsg(msgAuth)
	m.int32(0) // AuthenticationOk — trust
	m.writeTo(c.w)
	for _, kv := range [][2]string{
		{"server_version", "13.0 (madlib)"},
		{"server_encoding", "UTF8"},
		{"client_encoding", "UTF8"},
		{"DateStyle", "ISO"},
		{"integer_datetimes", "on"},
		{"standard_conforming_strings", "on"},
	} {
		m = newMsg(msgParameterStatus)
		m.cstring(kv[0])
		m.cstring(kv[1])
		m.writeTo(c.w)
	}
	m = newMsg(msgBackendKeyData)
	m.int32(c.pid)
	m.int32(c.secret)
	m.writeTo(c.w)
	c.writeReady()
}

// readLoop feeds frontend messages to the main loop. On any read error
// it aborts the active statement — this is how a dropped client stops a
// scan that is already running.
func (c *conn) readLoop() {
	for {
		typ, body, err := readMessage(c.r)
		if err != nil {
			c.gone.Store(true)
			c.abortActive()
			select {
			case c.msgs <- frontendMsg{err: err}:
			case <-c.done:
			}
			return
		}
		select {
		case c.msgs <- frontendMsg{typ: typ, body: body}:
		case <-c.done:
			return
		}
		if typ == msgTerminate {
			return
		}
	}
}

func (c *conn) serveLoop() {
	skipToSync := false // extended-protocol error: ignore until Sync
	for {
		if c.isDraining() {
			c.writeError(codeAdminShutdown, "server is shutting down", true)
			c.w.Flush()
			return
		}
		m := <-c.msgs
		if m.err != nil {
			return
		}
		if skipToSync && m.typ != msgSync && m.typ != msgTerminate {
			continue
		}
		switch m.typ {
		case msgTerminate:
			return
		case msgQuery:
			c.handleSimpleQuery(m.body)
		case msgParse:
			skipToSync = !c.handleParse(m.body)
		case msgBind:
			skipToSync = !c.handleBind(m.body)
		case msgDescribe:
			skipToSync = !c.handleDescribe(m.body)
		case msgExecute:
			skipToSync = !c.handleExecute(m.body)
		case msgClose:
			skipToSync = !c.handleClose(m.body)
		case msgSync:
			skipToSync = false
			c.writeReady()
		case msgFlush:
		default:
			c.writeError(codeProtocolViolation,
				fmt.Sprintf("unsupported message %q", m.typ), false)
			skipToSync = true
		}
		if m.typ == msgQuery || m.typ == msgSync || m.typ == msgFlush {
			if c.w.Flush() != nil {
				return
			}
		}
		if c.gone.Load() {
			return
		}
	}
}

// queryContext builds the context one statement runs under: cancelled on
// wire CancelRequest or client drop, deadline-bounded by the configured
// statement timeout. The engine observes it at morsel boundaries.
func (c *conn) queryContext() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if d := c.srv.cfg.StatementTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	c.setActive(cancel)
	return ctx, func() {
		c.setActive(nil)
		cancel()
	}
}

func (c *conn) handleSimpleQuery(body []byte) {
	r := &reader{body: body}
	text := r.cstring()
	if r.err != nil {
		c.writeError(codeProtocolViolation, "malformed Query", false)
		c.writeReady()
		return
	}
	if strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), ";")) == "" {
		m := newMsg(msgEmptyQuery)
		m.writeTo(c.w)
		c.writeReady()
		return
	}
	ctx, done := c.queryContext()
	sets, err := c.sess.ExecRowSets(ctx, text)
	done()
	for _, rs := range sets {
		c.srv.queries.Inc()
		c.writeRowSet(rs, true)
	}
	if err != nil {
		c.writeQueryError(err)
	}
	c.writeReady()
}

// encFlushBytes is how much encoded DataRow text writeRowSet gathers
// before it hands the buffer to the socket.
const encFlushBytes = 32 << 10

// writeRowSet emits one statement's output: RowDescription (when the
// statement produces rows and withDesc is set), DataRows, and the
// CommandComplete tag. DataRows render straight from the result chunks'
// lanes into the connection's encode buffer — no message object, no
// string per cell — and a client that has gone away stops the loop at
// the next hand-off.
func (c *conn) writeRowSet(rs *sql.RowSet, withDesc bool) {
	if len(rs.Cols) > 0 && withDesc {
		c.writeRowDescription(rs.Cols, rs.ColumnTypes())
	}
	ncols := len(rs.Cols)
	buf := c.enc[:0]
	chunks := rs.Chunks()
	for i := range chunks {
		ch := &chunks[i]
		for r := 0; r < ch.Len(); r++ {
			start := len(buf)
			buf = append(buf, msgDataRow, 0, 0, 0, 0, byte(ncols>>8), byte(ncols))
			for col := 0; col < ncols; col++ {
				at := len(buf)
				buf = append(buf, 0xff, 0xff, 0xff, 0xff) // length -1: NULL
				var null bool
				if buf, null = ch.AppendText(buf, r, col); !null {
					binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
				}
			}
			binary.BigEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-1))
			if len(buf) >= encFlushBytes {
				if _, err := c.w.Write(buf); err != nil || c.gone.Load() {
					c.enc = buf[:0]
					return
				}
				buf = buf[:0]
			}
		}
	}
	c.w.Write(buf)
	c.enc = buf[:0]
	m := newMsg(msgCommandComplete)
	m.cstring(rs.Tag)
	m.writeTo(c.w)
}

func (c *conn) writeRowDescription(cols, types []string) {
	m := newMsg(msgRowDescription)
	m.int16(int16(len(cols)))
	for i, name := range cols {
		m.cstring(name)
		m.int32(0) // table OID
		m.int16(0) // attribute number
		m.int32(oidForType(types[i]))
		m.int16(-1) // typlen: variable
		m.int32(-1) // typmod
		m.int16(0)  // format: text
	}
	m.writeTo(c.w)
}

// oidForType maps a SQL type name as the planner reports it
// (sql.RowSet.ColumnTypes) to its type OID; a type only the values could
// tell travels as text, like every value does.
func oidForType(typ string) int32 {
	switch typ {
	case "bigint":
		return oidInt8
	case "double precision":
		return oidFloat8
	case "boolean":
		return oidBool
	case "double precision[]":
		return oidFloat8Array
	}
	return oidText
}

func (c *conn) writeReady() {
	m := newMsg(msgReadyForQuery)
	m.byte('I')
	m.writeTo(c.w)
}

// writeError emits an ErrorResponse. fatal marks connection-terminating
// errors (severity FATAL) such as pool exhaustion or shutdown.
func (c *conn) writeError(sqlstate, message string, fatal bool) {
	sev := "ERROR"
	if fatal {
		sev = "FATAL"
	}
	m := newMsg(msgErrorResponse)
	m.byte('S')
	m.cstring(sev)
	m.byte('V')
	m.cstring(sev)
	m.byte('C')
	m.cstring(sqlstate)
	m.byte('M')
	m.cstring(message)
	m.byte(0)
	m.writeTo(c.w)
}

func (c *conn) writeQueryError(err error) {
	c.srv.errorsCtr.Inc()
	c.writeError(sqlstateFor(err), err.Error(), false)
}

func sqlstateFor(err error) string {
	var se *sql.ErrSyntax
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return codeQueryCanceled
	case errors.As(err, &se):
		return codeSyntaxError
	default:
		return codeInternalError
	}
}

// mangledName namespaces a client statement name inside the shared-pool
// session, so two connections' unnamed statements never collide even if
// a session is recycled without a full wipe.
func (c *conn) mangledName(name string) string {
	if name == "" {
		name = "unnamed"
	}
	return fmt.Sprintf("pgwire_%d_%s", c.pid, name)
}

// handleParse services Parse: plannable statements become real session
// prepared statements (planning eagerly so errors surface now); others
// keep their AST and plan at Execute. Returns false on error, which
// makes the main loop skip to Sync.
func (c *conn) handleParse(body []byte) bool {
	r := &reader{body: body}
	name := r.cstring()
	query := r.cstring()
	nOIDs := r.int16()
	oids := make([]int32, 0, max(int(nOIDs), 0))
	for i := 0; i < int(nOIDs); i++ {
		oids = append(oids, r.int32())
	}
	if r.err != nil {
		c.writeError(codeProtocolViolation, "malformed Parse", false)
		return false
	}
	if name != "" {
		if _, dup := c.prepared[name]; dup {
			c.writeQueryError(fmt.Errorf("prepared statement %q already exists", name))
			return false
		}
	}

	ps := &preparedStmt{query: query, paramOIDs: oids}
	stmts, err := sql.Parse(query)
	if err != nil {
		c.writeQueryError(err)
		return false
	}
	switch len(stmts) {
	case 0:
		ps.empty = true
	case 1:
		switch st := stmts[0].(type) {
		case *sql.Select, *sql.Insert:
			mangled := c.mangledName(name)
			if name == "" {
				// Re-Parse of the unnamed statement replaces it.
				c.dropPrepared("")
			}
			if _, err := c.sess.Run(&sql.Prepare{Name: mangled, Stmt: st, Text: query}); err != nil {
				c.writeQueryError(err)
				return false
			}
			ps.sessName = mangled
			ps.numParams, ps.cols, ps.types, err = c.sess.DescribePrepared(mangled)
			if err != nil {
				c.writeQueryError(err)
				return false
			}
		default:
			ps.stmt = st
		}
	default:
		c.writeQueryError(errors.New("cannot Parse a multi-statement string"))
		return false
	}
	c.prepared[name] = ps
	m := newMsg(msgParseComplete)
	m.writeTo(c.w)
	return true
}

func (c *conn) dropPrepared(name string) {
	ps, ok := c.prepared[name]
	if !ok {
		return
	}
	if ps.sessName != "" {
		_, _ = c.sess.Run(&sql.Deallocate{Name: ps.sessName})
	}
	delete(c.prepared, name)
}

func (c *conn) handleBind(body []byte) bool {
	r := &reader{body: body}
	portalName := r.cstring()
	stmtName := r.cstring()
	nFmt := r.int16()
	fmts := make([]int16, 0, max(int(nFmt), 0))
	for i := 0; i < int(nFmt); i++ {
		fmts = append(fmts, r.int16())
	}
	nParams := r.int16()
	raw := make([][]byte, 0, max(int(nParams), 0))
	for i := 0; i < int(nParams); i++ {
		raw = append(raw, r.valueBytes())
	}
	nResFmt := r.int16()
	for i := 0; i < int(nResFmt); i++ {
		if r.int16() != 0 {
			c.writeError(codeProtocolViolation, "binary result format not supported", false)
			return false
		}
	}
	if r.err != nil {
		c.writeError(codeProtocolViolation, "malformed Bind", false)
		return false
	}
	// Per-parameter format resolution, as the protocol specifies: zero
	// codes means all-text, a single code applies to every parameter,
	// otherwise one code per parameter.
	if len(fmts) > 1 && len(fmts) != len(raw) {
		c.writeError(codeProtocolViolation,
			fmt.Sprintf("bind message has %d parameter formats but %d parameters", len(fmts), len(raw)), false)
		return false
	}
	fmtFor := func(i int) int16 {
		switch len(fmts) {
		case 0:
			return 0
		case 1:
			return fmts[0]
		default:
			return fmts[i]
		}
	}
	ps, ok := c.prepared[stmtName]
	if !ok {
		c.writeQueryError(fmt.Errorf("prepared statement %q does not exist", stmtName))
		return false
	}
	params := make([]any, len(raw))
	for i, rv := range raw {
		if rv == nil {
			params[i] = nil
			continue
		}
		var oid int32
		if i < len(ps.paramOIDs) {
			oid = ps.paramOIDs[i]
		}
		var v any
		var err error
		switch fmtFor(i) {
		case 0:
			v, err = decodeParam(string(rv), oid)
		case 1:
			v, err = decodeBinaryParam(rv, oid)
		default:
			err = fmt.Errorf("unknown format code %d", fmtFor(i))
		}
		if err != nil {
			c.writeQueryError(fmt.Errorf("parameter $%d: %w", i+1, err))
			return false
		}
		params[i] = v
	}
	c.portals[portalName] = &portal{ps: ps, params: params}
	m := newMsg(msgBindComplete)
	m.writeTo(c.w)
	return true
}

// decodeParam converts one text-format parameter to an engine value
// using the OID the client declared at Parse time; OID 0 (unspecified)
// falls back to int → float → string.
func decodeParam(s string, oid int32) (any, error) {
	switch oid {
	case oidInt2, oidInt4, oidInt8:
		return strconv.ParseInt(s, 10, 64)
	case oidFloat4, oidFloat8:
		return strconv.ParseFloat(s, 64)
	case oidBool:
		switch strings.ToLower(s) {
		case "t", "true", "1", "on", "yes":
			return true, nil
		case "f", "false", "0", "off", "no":
			return false, nil
		}
		return nil, fmt.Errorf("invalid boolean %q", s)
	case oidText, oidVarchar:
		return s, nil
	case oidFloat8Array:
		return parseFloatArray(s)
	case 0:
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v, nil
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v, nil
		}
		return s, nil
	default:
		// Unknown declared type: pass the text through.
		return s, nil
	}
}

// decodeBinaryParam converts one binary-format parameter (network byte
// order, per the protocol) to an engine value. Only the fixed-width
// scalar types have a binary representation here; other OIDs must be
// sent in text format.
func decodeBinaryParam(b []byte, oid int32) (any, error) {
	want := func(n int, name string) error {
		if len(b) != n {
			return fmt.Errorf("binary %s must be %d bytes, got %d", name, n, len(b))
		}
		return nil
	}
	switch oid {
	case oidInt2:
		if err := want(2, "int2"); err != nil {
			return nil, err
		}
		return int64(int16(binary.BigEndian.Uint16(b))), nil
	case oidInt4:
		if err := want(4, "int4"); err != nil {
			return nil, err
		}
		return int64(int32(binary.BigEndian.Uint32(b))), nil
	case oidInt8:
		if err := want(8, "int8"); err != nil {
			return nil, err
		}
		return int64(binary.BigEndian.Uint64(b)), nil
	case oidFloat4:
		if err := want(4, "float4"); err != nil {
			return nil, err
		}
		return float64(math.Float32frombits(binary.BigEndian.Uint32(b))), nil
	case oidFloat8:
		if err := want(8, "float8"); err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
	case oidBool:
		if err := want(1, "bool"); err != nil {
			return nil, err
		}
		return b[0] != 0, nil
	default:
		return nil, fmt.Errorf("binary format not supported for parameter type OID %d", oid)
	}
}

func parseFloatArray(s string) ([]float64, error) {
	t := strings.TrimSpace(s)
	if !strings.HasPrefix(t, "{") || !strings.HasSuffix(t, "}") {
		return nil, fmt.Errorf("invalid array literal %q", s)
	}
	inner := strings.TrimSpace(t[1 : len(t)-1])
	if inner == "" {
		return []float64{}, nil
	}
	parts := strings.Split(inner, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid array element %q", p)
		}
		out[i] = f
	}
	return out, nil
}

func (c *conn) handleDescribe(body []byte) bool {
	r := &reader{body: body}
	kind := r.byte()
	name := r.cstring()
	if r.err != nil {
		c.writeError(codeProtocolViolation, "malformed Describe", false)
		return false
	}
	switch kind {
	case 'S':
		ps, ok := c.prepared[name]
		if !ok {
			c.writeQueryError(fmt.Errorf("prepared statement %q does not exist", name))
			return false
		}
		m := newMsg(msgParamDescription)
		m.int16(int16(ps.numParams))
		for i := 0; i < ps.numParams; i++ {
			oid := int32(0)
			if i < len(ps.paramOIDs) {
				oid = ps.paramOIDs[i]
			}
			m.int32(oid)
		}
		m.writeTo(c.w)
		c.describeRows(ps)
	case 'P':
		p, ok := c.portals[name]
		if !ok {
			c.writeQueryError(fmt.Errorf("portal %q does not exist", name))
			return false
		}
		c.describeRows(p.ps)
	default:
		c.writeError(codeProtocolViolation, "malformed Describe", false)
		return false
	}
	return true
}

// describeRows emits RowDescription for a prepared statement's output
// shape, or NoData when it produces no rows (or the shape is only known
// at execution, e.g. table-valued analytics calls).
func (c *conn) describeRows(ps *preparedStmt) {
	if len(ps.cols) == 0 {
		m := newMsg(msgNoData)
		m.writeTo(c.w)
		return
	}
	c.writeRowDescription(ps.cols, ps.types)
}

func (c *conn) handleExecute(body []byte) bool {
	r := &reader{body: body}
	portalName := r.cstring()
	r.int32() // max rows: this server always sends the full rowset
	if r.err != nil {
		c.writeError(codeProtocolViolation, "malformed Execute", false)
		return false
	}
	p, ok := c.portals[portalName]
	if !ok {
		c.writeQueryError(fmt.Errorf("portal %q does not exist", portalName))
		return false
	}
	if p.ps.empty {
		m := newMsg(msgEmptyQuery)
		m.writeTo(c.w)
		return true
	}
	ctx, done := c.queryContext()
	var rs *sql.RowSet
	var err error
	if p.ps.sessName != "" {
		rs, err = c.sess.ExecutePreparedRowSet(ctx, p.ps.sessName, p.params)
	} else {
		rs, err = c.sess.RunRowSet(ctx, p.ps.stmt)
	}
	done()
	if err != nil {
		c.writeQueryError(err)
		return false
	}
	c.srv.queries.Inc()
	// Extended protocol: the row shape was announced by Describe, so
	// Execute sends only DataRows + CommandComplete.
	c.writeRowSet(rs, false)
	return true
}

func (c *conn) handleClose(body []byte) bool {
	r := &reader{body: body}
	kind := r.byte()
	name := r.cstring()
	if r.err != nil {
		c.writeError(codeProtocolViolation, "malformed Close", false)
		return false
	}
	switch kind {
	case 'S':
		c.dropPrepared(name)
	case 'P':
		delete(c.portals, name)
	default:
		c.writeError(codeProtocolViolation, "malformed Close", false)
		return false
	}
	m := newMsg(msgCloseComplete)
	m.writeTo(c.w)
	return true
}
