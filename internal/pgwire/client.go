package pgwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"time"
)

// Client is a minimal PostgreSQL-wire client, enough to exercise this
// server from tests, benchmarks, and embedders without a third-party
// driver: simple queries, the extended protocol, and out-of-band
// cancellation. Values come back as text (nil = NULL), exactly as they
// crossed the wire. A result is decoded into an arena (rowArena): one
// string per DataRow, no allocation per cell. Not safe for concurrent
// use; open one per goroutine.
type Client struct {
	nc     net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	addr   string
	pid    int32
	secret int32
	// body is the read buffer for message bodies, reused across messages.
	body []byte
}

// ClientResult is one statement's outcome as seen on the wire.
type ClientResult struct {
	Cols []string
	Rows [][]*string // per-cell text; nil pointer = NULL
	Tag  string
}

// WireError is an ErrorResponse from the server.
type WireError struct {
	Severity string
	Code     string // SQLSTATE
	Message  string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("%s (SQLSTATE %s): %s", e.Severity, e.Code, e.Message)
}

// Dial connects and completes the startup handshake (trust auth).
func Dial(addr string) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:   nc,
		r:    bufio.NewReaderSize(nc, 8192),
		w:    bufio.NewWriterSize(nc, 8192),
		addr: addr,
	}
	if err := c.startup(); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) startup() error {
	m := newMsg(0)
	m.int32(protocolVersion)
	m.cstring("user")
	m.cstring("madlib")
	m.cstring("database")
	m.cstring("madlib")
	m.byte(0)
	if err := m.writeTo(c.w); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	for {
		typ, body, err := readMessage(c.r)
		if err != nil {
			return err
		}
		switch typ {
		case msgAuth:
			r := &reader{body: body}
			if code := r.int32(); code != 0 {
				return fmt.Errorf("pgwire client: unsupported auth method %d", code)
			}
		case msgBackendKeyData:
			r := &reader{body: body}
			c.pid = r.int32()
			c.secret = r.int32()
		case msgParameterStatus, msgNoticeResponse:
		case msgErrorResponse:
			return parseWireError(body)
		case msgReadyForQuery:
			return nil
		default:
			return fmt.Errorf("pgwire client: unexpected startup message %q", typ)
		}
	}
}

// Close sends Terminate and closes the socket.
func (c *Client) Close() error {
	m := newMsg(msgTerminate)
	m.writeTo(c.w)
	c.w.Flush()
	return c.nc.Close()
}

// BackendPID reports the server-assigned backend process ID.
func (c *Client) BackendPID() int32 { return c.pid }

// Query runs text via the simple-query protocol and returns the last
// statement's result. A server ErrorResponse surfaces as *WireError; the
// connection stays usable afterwards.
func (c *Client) Query(text string) (*ClientResult, error) {
	m := newMsg(msgQuery)
	m.cstring(text)
	if err := m.writeTo(c.w); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.collect()
}

// collect drains messages until ReadyForQuery, keeping the last result.
func (c *Client) collect() (*ClientResult, error) {
	var res *ClientResult
	var wireErr error
	var arena rowArena
	for {
		typ, body, err := readMessageInto(c.r, c.body)
		if err != nil {
			return nil, err
		}
		if cap(body) > cap(c.body) {
			c.body = body
		}
		switch typ {
		case msgRowDescription:
			r := &reader{body: body}
			n := int(r.int16())
			cols := make([]string, 0, max(n, 0))
			for i := 0; i < n; i++ {
				cols = append(cols, r.cstring())
				r.int32()
				r.int16()
				r.int32()
				r.int16()
				r.int32()
				r.int16()
			}
			if r.err != nil {
				return nil, r.err
			}
			res = &ClientResult{Cols: cols}
			arena = rowArena{}
		case msgDataRow:
			row, err := arena.decode(body)
			if err != nil {
				return nil, err
			}
			if res == nil {
				res = &ClientResult{}
			}
			if len(res.Rows) == cap(res.Rows) {
				// Double: append's 1.25x steps would allocate five times
				// a large result's final row slice on the way there.
				res.Rows = append(make([][]*string, 0, max(4, 2*cap(res.Rows))), res.Rows...)
			}
			res.Rows = append(res.Rows, row)
		case msgCommandComplete:
			r := &reader{body: body}
			if res == nil {
				res = &ClientResult{}
			}
			res.Tag = r.cstring()
		case msgEmptyQuery:
			if res == nil {
				res = &ClientResult{}
			}
		case msgErrorResponse:
			wireErr = parseWireError(body)
		case msgNoticeResponse, msgParameterStatus:
		case msgParseComplete, msgBindComplete, msgCloseComplete,
			msgParamDescription, msgNoData:
		case msgReadyForQuery:
			if wireErr != nil {
				return nil, wireErr
			}
			return res, nil
		default:
			return nil, fmt.Errorf("pgwire client: unexpected message %q", typ)
		}
	}
}

// rowArena decodes one result's DataRows without allocating per cell: a
// row's cells are substrings of one string copy of its message body,
// their *strings point into slabs of strings, and the rows are
// sub-slices of slabs of pointers. A full slab is left to the rows that
// point into it and a new one, twice the size, takes over — so a result
// allocates in proportion to the logarithm of its cell count, and a
// small result only small slabs.
type rowArena struct {
	cells []string
	ptrs  []*string
}

// arenaMaxSlab caps slab doubling (in cells), bounding what a result's
// last, partly used slab can waste.
const arenaMaxSlab = 1 << 14

func (a *rowArena) decode(body []byte) ([]*string, error) {
	if len(body) < 2 {
		return nil, errMalformed
	}
	n := int(int16(binary.BigEndian.Uint16(body)))
	if n < 0 || len(body)-2 < 4*n {
		return nil, errMalformed
	}
	if cap(a.cells)-len(a.cells) < n {
		size := min(max(2*cap(a.cells), 4*n), max(arenaMaxSlab, n))
		a.cells, a.ptrs = make([]string, 0, size), make([]*string, 0, size)
	}
	s := string(body)
	base := len(a.ptrs)
	pos := 2
	for i := 0; i < n; i++ {
		if len(s)-pos < 4 {
			return nil, errMalformed
		}
		l := int(int32(binary.BigEndian.Uint32(body[pos:])))
		pos += 4
		if l < 0 {
			a.ptrs = append(a.ptrs, nil)
			continue
		}
		if len(s)-pos < l {
			return nil, errMalformed
		}
		a.cells = append(a.cells, s[pos:pos+l])
		a.ptrs = append(a.ptrs, &a.cells[len(a.cells)-1])
		pos += l
	}
	return a.ptrs[base:len(a.ptrs):len(a.ptrs)], nil
}

// Prepare creates a named prepared statement via the extended protocol
// (Parse + Sync). paramOIDs may be nil to let the server infer types.
func (c *Client) Prepare(name, query string, paramOIDs []int32) error {
	m := newMsg(msgParse)
	m.cstring(name)
	m.cstring(query)
	m.int16(int16(len(paramOIDs)))
	for _, oid := range paramOIDs {
		m.int32(oid)
	}
	m.writeTo(c.w)
	c.sync()
	_, err := c.collect()
	return err
}

// Execute binds params (nil = NULL) to a prepared statement and runs it
// via Bind + Describe(portal) + Execute + Sync.
func (c *Client) Execute(name string, params []*string) (*ClientResult, error) {
	m := newMsg(msgBind)
	m.cstring("") // unnamed portal
	m.cstring(name)
	m.int16(0) // all params text
	m.int16(int16(len(params)))
	for _, p := range params {
		if p == nil {
			m.int32(-1)
			continue
		}
		m.int32(int32(len(*p)))
		m.bytes([]byte(*p))
	}
	m.int16(0) // all results text
	m.writeTo(c.w)
	m = newMsg(msgDescribe)
	m.byte('P')
	m.cstring("")
	m.writeTo(c.w)
	m = newMsg(msgExecute)
	m.cstring("")
	m.int32(0)
	m.writeTo(c.w)
	c.sync()
	return c.collect()
}

// WireParam is one Bind parameter with an explicit per-parameter wire
// format, for exercising the binary-format path.
type WireParam struct {
	Binary bool
	Data   []byte // raw wire bytes; nil = NULL
}

// TextParam builds a text-format parameter.
func TextParam(s string) WireParam { return WireParam{Data: []byte(s)} }

// Int8Param builds a binary-format int8 parameter (network byte order).
func Int8Param(v int64) WireParam {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return WireParam{Binary: true, Data: b}
}

// Float8Param builds a binary-format float8 parameter (IEEE-754 bits in
// network byte order).
func Float8Param(v float64) WireParam {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
	return WireParam{Binary: true, Data: b}
}

// ExecuteParams is Execute with per-parameter format codes: each
// parameter travels in the format its WireParam declares. Results stay
// text.
func (c *Client) ExecuteParams(name string, params []WireParam) (*ClientResult, error) {
	m := newMsg(msgBind)
	m.cstring("") // unnamed portal
	m.cstring(name)
	m.int16(int16(len(params)))
	for _, p := range params {
		if p.Binary {
			m.int16(1)
		} else {
			m.int16(0)
		}
	}
	m.int16(int16(len(params)))
	for _, p := range params {
		if p.Data == nil {
			m.int32(-1)
			continue
		}
		m.int32(int32(len(p.Data)))
		m.bytes(p.Data)
	}
	m.int16(0) // all results text
	m.writeTo(c.w)
	m = newMsg(msgDescribe)
	m.byte('P')
	m.cstring("")
	m.writeTo(c.w)
	m = newMsg(msgExecute)
	m.cstring("")
	m.int32(0)
	m.writeTo(c.w)
	c.sync()
	return c.collect()
}

// ClosePrepared releases a named prepared statement on the server.
func (c *Client) ClosePrepared(name string) error {
	m := newMsg(msgClose)
	m.byte('S')
	m.cstring(name)
	m.writeTo(c.w)
	c.sync()
	_, err := c.collect()
	return err
}

func (c *Client) sync() {
	m := newMsg(msgSync)
	m.writeTo(c.w)
	c.w.Flush()
}

// Cancel opens a second connection and sends a CancelRequest for this
// connection's active query, exactly as PQcancel does.
func (c *Client) Cancel() error {
	nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	w := bufio.NewWriter(nc)
	m := newMsg(0)
	m.int32(cancelReqCode)
	m.int32(c.pid)
	m.int32(c.secret)
	if err := m.writeTo(w); err != nil {
		return err
	}
	return w.Flush()
}

func parseWireError(body []byte) error {
	we := &WireError{}
	r := &reader{body: body}
	for {
		f := r.byte()
		if f == 0 || r.err != nil {
			break
		}
		v := r.cstring()
		switch f {
		case 'S':
			we.Severity = v
		case 'C':
			we.Code = v
		case 'M':
			we.Message = v
		}
	}
	if we.Message == "" && we.Code == "" {
		return errors.New("pgwire client: malformed error response")
	}
	return we
}
