package pgwire

import (
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire.golden from this build's backend byte stream")

// wireStep is one exchange of the golden corpus: frontend messages
// written in one flush, backend bytes recorded up to ReadyForQuery.
type wireStep struct {
	name string
	send []*msgBuf
}

func simpleQ(text string) []*msgBuf {
	m := newMsg(msgQuery)
	m.cstring(text)
	return []*msgBuf{m}
}

// extendedQ renders Parse + Bind + Describe(kind) + Execute + Sync for
// one unnamed statement with text-format parameters (nil = NULL) unless
// binary is set, in which case every parameter is an int8 in binary.
func extendedQ(query string, oids []int32, params []string, binary8 []int64, describe byte) []*msgBuf {
	parse := newMsg(msgParse)
	parse.cstring("")
	parse.cstring(query)
	parse.int16(int16(len(oids)))
	for _, o := range oids {
		parse.int32(o)
	}
	bind := newMsg(msgBind)
	bind.cstring("")
	bind.cstring("")
	if binary8 != nil {
		bind.int16(1)
		bind.int16(1)
		bind.int16(int16(len(binary8)))
		for _, v := range binary8 {
			bind.int32(8)
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(v))
			bind.bytes(b[:])
		}
	} else {
		bind.int16(0)
		bind.int16(int16(len(params)))
		for _, p := range params {
			bind.int32(int32(len(p)))
			bind.bytes([]byte(p))
		}
	}
	bind.int16(0)
	desc := newMsg(msgDescribe)
	desc.byte(describe)
	desc.cstring("")
	exec := newMsg(msgExecute)
	exec.cstring("")
	exec.int32(0)
	return []*msgBuf{parse, bind, desc, exec, newMsg(msgSync)}
}

// wireCorpus is the fixed statement corpus of the wire golden: every
// result shape the encoder sees, over both protocols.
func wireCorpus() []wireStep {
	return []wireStep{
		{"setup", simpleQ(`CREATE TABLE t (id bigint, g bigint, v double precision, label text, b boolean, vec double precision[]);
INSERT INTO t VALUES
 (0, 0, 0.5, 'a', true, {0, 1}), (1, 1, -1.25, 'bb', false, {1, 1.5}), (2, 2, 2e21, '', true, {}),
 (3, 0, 3.0000000001, 'dé', false, {-0.5}), (4, 1, 1e-7, 'e e', true, {4, 4, 4}), (5, 2, 5, 'f', false, {5}),
 (6, 3, 123456789.125, 'g', true, {6, 1e300}), (7, 3, -7, 'h', false, {7}), (8, 0, 8, 'i', true, {8}),
 (9, 4, 0, 'j', false, {9});
CREATE TABLE dims (g bigint, name text, w double precision);
INSERT INTO dims VALUES (0, 'zero', 0.5), (1, 'one', 1.5), (3, 'three', 3.5)`)},
		{"scan", simpleQ(`SELECT id, g, v, label, b FROM t WHERE id < 7`)},
		{"scan expressions", simpleQ(`SELECT id * 2, v / 3, -v, v * 1e21, id > 4 FROM t WHERE id < 5`)},
		{"scan limit", simpleQ(`SELECT id, label FROM t WHERE id > 1 LIMIT 3`)},
		{"left join nulls", simpleQ(`SELECT t.id, dims.name, dims.w, dims.g FROM t LEFT JOIN dims ON t.g = dims.g`)},
		{"left join ordered", simpleQ(`SELECT dims.name, t.id FROM t LEFT JOIN dims ON t.g = dims.g ORDER BY dims.name, t.id`)},
		{"left join null first row", simpleQ(`SELECT dims.name, dims.w FROM t LEFT JOIN dims ON t.g = dims.g WHERE t.id = 2`)},
		{"vector column", simpleQ(`SELECT id, vec FROM t WHERE id < 4`)},
		{"aggregate", simpleQ(`SELECT g, count(*), sum(v), avg(v), min(label), sum(id) FROM t GROUP BY g`)},
		{"ungrouped aggregate", simpleQ(`SELECT count(*), max(v), min(b) FROM t WHERE id < 0`)},
		{"window", simpleQ(`SELECT id, row_number() OVER (PARTITION BY g ORDER BY v), sum(v) OVER (PARTITION BY g ORDER BY v) FROM t ORDER BY id`)},
		{"order by limit", simpleQ(`SELECT id, v FROM t ORDER BY v DESC, id LIMIT 3`)},
		{"order by expression", simpleQ(`SELECT label FROM t WHERE id < 6 ORDER BY -id`)},
		{"distinct", simpleQ(`SELECT DISTINCT g, b FROM t ORDER BY g, b`)},
		{"empty result", simpleQ(`SELECT id, v, label, b, vec FROM t WHERE id < 0`)},
		{"empty aggregate", simpleQ(`SELECT g, count(*), avg(v) FROM t WHERE id < 0 GROUP BY g`)},
		{"error after zero rows", simpleQ(`SELECT id / (id - id) FROM t`)},
		{"const", simpleQ(`SELECT 1 + 2, 'a', true, 1.5`)},
		{"multi statement", simpleQ(`SELECT 1; SELECT 'x' AS s`)},
		{"explain", simpleQ(`EXPLAIN SELECT id FROM t WHERE id < 3`)},
		{"ctas and drop", simpleQ(`CREATE TABLE c AS SELECT id, v FROM t WHERE id < 3; SELECT id, v FROM c; DROP TABLE c`)},
		{"syntax error", simpleQ(`SELEC 1`)},
		{"empty query", simpleQ(`;`)},
		{"prepared range binary", extendedQ(`SELECT id, label FROM t WHERE id >= $1 AND id < $1 + 3`, []int32{oidInt8}, nil, []int64{4}, 'P')},
		{"prepared describe statement", extendedQ(`SELECT id, v, b FROM t WHERE v > $1`, []int32{oidFloat8}, []string{"100"}, nil, 'S')},
		{"prepared empty", extendedQ(`SELECT id, v FROM t WHERE id > $1`, []int32{oidInt8}, []string{"100"}, nil, 'P')},
		{"prepared left join", extendedQ(`SELECT t.id, dims.name, dims.w FROM t LEFT JOIN dims ON t.g = dims.g WHERE t.id > $1`, nil, []string{"6"}, nil, 'P')},
		{"prepared aggregate", extendedQ(`SELECT g, count(*), sum(v) FROM t WHERE v > $1 GROUP BY g`, nil, []string{"0.25"}, nil, 'P')},
		{"prepared dynamic item", extendedQ(`SELECT $1 + 1, id FROM t WHERE id < 2`, nil, []string{"41"}, nil, 'P')},
		{"prepared bad argument", extendedQ(`SELECT id FROM t WHERE id >= $1 AND id < $1 + 3`, nil, []string{"nope"}, nil, 'P')},
		{"prepared insert", extendedQ(`INSERT INTO dims VALUES ($1, $2, $3)`, nil, []string{"7", "seven", "7.5"}, nil, 'P')},
		{"prepared ddl", extendedQ(`DROP TABLE dims`, nil, nil, nil, 'P')},
	}
}

// captureWire runs the corpus against a fresh server and renders the
// backend byte stream: one "## step" header per exchange, then one line
// per backend message — its type byte and its body in hex. (The greeting,
// which carries the backend's random cancel key, is not part of it.)
func captureWire(t *testing.T) string {
	t.Helper()
	_, _, addr := startServer(t, Config{})
	c := dialRaw(t, addr)
	var out strings.Builder
	for _, step := range wireCorpus() {
		fmt.Fprintf(&out, "## %s\n", step.name)
		c.exchange(step.send, func(typ byte, body []byte) {
			fmt.Fprintf(&out, "%c %s\n", typ, hex.EncodeToString(body))
		})
	}
	return out.String()
}

// correctedOIDs lists, per corpus step, the RowDescription type OIDs this
// build reports differently from the commit the golden file was captured
// at (ff38b92, the parent of the columnar result path): that commit
// sampled the first row, so empty results, NULL first cells and every
// Describe said text. The list is the whole difference between the two
// byte streams.
var correctedOIDs = map[string][]int32{
	"left join null first row":    {oidText, oidFloat8},
	"ungrouped aggregate":         {oidInt8, oidFloat8, oidBool},
	"empty result":                {oidInt8, oidFloat8, oidText, oidBool, oidFloat8Array},
	"empty aggregate":             {oidInt8, oidInt8, oidFloat8},
	"prepared range binary":       {oidInt8, oidText},
	"prepared describe statement": {oidInt8, oidFloat8, oidBool},
	"prepared empty":              {oidInt8, oidFloat8},
	"prepared left join":          {oidInt8, oidText, oidFloat8},
	"prepared aggregate":          {oidInt8, oidInt8, oidFloat8},
	"prepared dynamic item":       {oidText, oidInt8},
	"prepared bad argument":       {oidInt8},
}

// patchRowDescription rewrites the type OIDs of one hex-encoded
// RowDescription body.
func patchRowDescription(t *testing.T, hexBody string, oids []int32) string {
	t.Helper()
	body, err := hex.DecodeString(hexBody)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.BigEndian.Uint16(body))
	if n != len(oids) {
		t.Fatalf("RowDescription has %d columns, correction lists %d", n, len(oids))
	}
	pos := 2
	for _, oid := range oids {
		for body[pos] != 0 {
			pos++
		}
		pos += 1 + 4 + 2 // name terminator, table OID, attribute number
		binary.BigEndian.PutUint32(body[pos:], uint32(oid))
		pos += 4 + 2 + 4 + 2 // type OID, typlen, typmod, format
	}
	return hex.EncodeToString(body)
}

// TestWireGolden requires the backend byte stream of the corpus to equal
// the stream captured at the parent commit, byte for byte, apart from
// the RowDescription OIDs listed in correctedOIDs.
func TestWireGolden(t *testing.T) {
	got := captureWire(t)
	const path = "testdata/wire.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	step := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "## "); ok {
			step = strings.TrimSpace(name)
		}
		if body, ok := strings.CutPrefix(line, "T "); ok && correctedOIDs[step] != nil {
			line = "T " + patchRowDescription(t, strings.TrimSpace(body), correctedOIDs[step]) + "\n"
		}
		want.WriteString(line)
	}
	if got != want.String() {
		gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("backend stream differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("backend stream has %d lines, golden has %d", len(gl), len(wl))
	}
}
