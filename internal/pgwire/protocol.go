// Package pgwire serves the engine's SQL dialect over the PostgreSQL
// wire protocol (v3), so any psql/pgx-compatible client can connect:
// startup with trust auth, the simple-query protocol, and the
// extended-query protocol mapped onto the session's PREPARE/EXECUTE
// plans. One process serves many connections over one shared engine;
// each connection draws a Session from a bounded pool, and every query
// runs under a context so a wire CancelRequest or statement timeout
// stops the scan at morsel boundaries. Results leave as the executor
// made them: DataRows render from the typed lanes of sql.RowSet chunks
// into one reusable buffer per connection (conn.writeRowSet), and
// RowDescription types come from the plan, not from the first row.
package pgwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants (PostgreSQL protocol v3).
const (
	protocolVersion = 196608 // 3.0
	sslRequestCode  = 80877103
	gssEncReqCode   = 80877104
	cancelReqCode   = 80877102
)

// Backend (server → client) message types.
const (
	msgAuth             = 'R'
	msgParameterStatus  = 'S'
	msgBackendKeyData   = 'K'
	msgReadyForQuery    = 'Z'
	msgRowDescription   = 'T'
	msgDataRow          = 'D'
	msgCommandComplete  = 'C'
	msgEmptyQuery       = 'I'
	msgErrorResponse    = 'E'
	msgNoticeResponse   = 'N'
	msgParseComplete    = '1'
	msgBindComplete     = '2'
	msgCloseComplete    = '3'
	msgParamDescription = 't'
	msgNoData           = 'n'
)

// Frontend (client → server) message types.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgDescribe  = 'D'
	msgExecute   = 'E'
	msgClose     = 'C'
	msgSync      = 'S'
	msgFlush     = 'H'
	msgTerminate = 'X'
)

// Type OIDs for RowDescription / parameter decoding (pg_type.oid).
const (
	oidBool        = 16
	oidInt8        = 20
	oidInt2        = 21
	oidInt4        = 23
	oidText        = 25
	oidFloat4      = 700
	oidFloat8      = 701
	oidVarchar     = 1043
	oidFloat8Array = 1022
)

// Exported parameter-type OIDs for Client.Prepare callers (pg_type.oid);
// declaring one of these enables binary-format Bind for that parameter.
const (
	OidBool   int32 = oidBool
	OidInt2   int32 = oidInt2
	OidInt4   int32 = oidInt4
	OidInt8   int32 = oidInt8
	OidText   int32 = oidText
	OidFloat4 int32 = oidFloat4
	OidFloat8 int32 = oidFloat8
)

// SQLSTATE codes the server emits.
const (
	codeSyntaxError       = "42601"
	codeQueryCanceled     = "57014"
	codeTooManyConns      = "53300"
	codeAdminShutdown     = "57P01"
	codeProtocolViolation = "08P01"
	codeInternalError     = "XX000"
)

// maxMessageLen bounds one frontend message body (16 MiB), protecting
// the server from a bogus length prefix.
const maxMessageLen = 16 << 20

// readMessage reads one typed message: a 1-byte type, an int32 length
// (including itself), and the body, which the caller owns.
func readMessage(r *bufio.Reader) (typ byte, body []byte, err error) {
	return readMessageInto(r, nil)
}

// readMessageInto is readMessage with the body read into buf when it
// fits (the returned body then aliases buf and is only good until buf
// is reused).
func readMessageInto(r *bufio.Reader, buf []byte) (typ byte, body []byte, err error) {
	head, err := r.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	typ = head[0]
	n := int(binary.BigEndian.Uint32(head[1:]))
	if _, err := r.Discard(5); err != nil {
		return 0, nil, err
	}
	if n < 4 || n-4 > maxMessageLen {
		return 0, nil, fmt.Errorf("pgwire: invalid message length %d", n)
	}
	if n -= 4; n <= cap(buf) {
		body = buf[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// msgBuf builds one backend message (or a startup-style untyped one).
type msgBuf struct {
	buf []byte
}

func newMsg(typ byte) *msgBuf {
	b := &msgBuf{buf: make([]byte, 0, 64)}
	if typ != 0 {
		b.buf = append(b.buf, typ)
	}
	// Length placeholder, patched by writeTo.
	b.buf = append(b.buf, 0, 0, 0, 0)
	return b
}

func (b *msgBuf) byte(v byte)    { b.buf = append(b.buf, v) }
func (b *msgBuf) bytes(v []byte) { b.buf = append(b.buf, v...) }
func (b *msgBuf) int16(v int16)  { b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(v)) }
func (b *msgBuf) int32(v int32)  { b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(v)) }
func (b *msgBuf) cstring(s string) {
	b.buf = append(b.buf, s...)
	b.buf = append(b.buf, 0)
}

// writeTo patches the length prefix and writes the message.
func (b *msgBuf) writeTo(w *bufio.Writer) error {
	start := 0
	if b.buf[0] != 0 && len(b.buf) >= 5 {
		// Typed message: length starts after the type byte.
		start = 1
	}
	binary.BigEndian.PutUint32(b.buf[start:], uint32(len(b.buf)-start))
	_, err := w.Write(b.buf)
	return err
}

// reader walks one message body.
type reader struct {
	body []byte
	pos  int
	err  error
}

var errMalformed = errors.New("pgwire: malformed message")

func (r *reader) fail() {
	if r.err == nil {
		r.err = errMalformed
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.body) {
		r.fail()
		return 0
	}
	v := r.body[r.pos]
	r.pos++
	return v
}

func (r *reader) int16() int16 {
	if r.err != nil || r.pos+2 > len(r.body) {
		r.fail()
		return 0
	}
	v := int16(binary.BigEndian.Uint16(r.body[r.pos:]))
	r.pos += 2
	return v
}

func (r *reader) int32() int32 {
	if r.err != nil || r.pos+4 > len(r.body) {
		r.fail()
		return 0
	}
	v := int32(binary.BigEndian.Uint32(r.body[r.pos:]))
	r.pos += 4
	return v
}

func (r *reader) cstring() string {
	if r.err != nil {
		return ""
	}
	for i := r.pos; i < len(r.body); i++ {
		if r.body[i] == 0 {
			s := string(r.body[r.pos:i])
			r.pos = i + 1
			return s
		}
	}
	r.fail()
	return ""
}

// valueBytes reads an int32-length-prefixed value; nil means NULL (-1).
func (r *reader) valueBytes() []byte {
	n := r.int32()
	if r.err != nil {
		return nil
	}
	if n < 0 {
		return nil
	}
	if r.pos+int(n) > len(r.body) {
		r.fail()
		return nil
	}
	v := r.body[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return v
}
