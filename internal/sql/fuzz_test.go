package sql_test

import (
	"path/filepath"
	"testing"

	"madlib/internal/sql"
	"madlib/internal/sql/logictest"
)

// FuzzParse asserts two properties over arbitrary input:
//
//  1. the parser never panics — it returns a value or an error;
//  2. for every SELECT that parses, String() renders SQL that re-parses,
//     and re-rendering is a fixed point (same plan shape: the rendered
//     tree is fully parenthesized, so precedence survives the trip).
//
// The seed corpus is every statement of the logictest golden files plus
// the new-grammar shapes (JOIN, OVER, DISTINCT, CTAS), so `go test`
// exercises all seeds even without -fuzz.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("logictest/testdata/*.slt")
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no logictest seed files found")
	}
	for _, path := range files {
		recs, err := logictest.ParseFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range recs {
			f.Add(rec.SQL)
		}
	}
	for _, seed := range []string{
		`SELECT d.name, row_number() OVER (PARTITION BY d.id ORDER BY s.score) FROM depts d JOIN scores s ON d.id = s.dept_id`,
		`SELECT DISTINCT a.x FROM a LEFT OUTER JOIN b ON a.k = b.k WHERE a.x > $1 ORDER BY 1 DESC LIMIT 3`,
		`CREATE TABLE t2 AS SELECT DISTINCT g, sum(v) s FROM t GROUP BY g HAVING count(*) > 1`,
		`SELECT sum(v) OVER (), count(*) OVER () FROM t`,
		`SELECT {1, 2.5}, 'it''s', -1e-3, not true AND false OR 1 <> 2`,
		`SELECT - -1.5, -(-i), - - -2 FROM t`,
		`PREPARE p AS INSERT INTO t VALUES ($1, $2); EXECUTE p(1, 2); DEALLOCATE ALL`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmts, err := sql.Parse(input) // must not panic
		if err != nil {
			return
		}
		for _, st := range stmts {
			sel, ok := st.(*sql.Select)
			if !ok {
				continue
			}
			s1 := sel.String()
			re, err := sql.ParseStatement(s1)
			if err != nil {
				t.Fatalf("String() output does not re-parse: %v\ninput: %q\nrendered: %q", err, input, s1)
			}
			if s2 := re.String(); s2 != s1 {
				t.Fatalf("round-trip is not a fixed point\ninput: %q\nfirst:  %q\nsecond: %q", input, s1, s2)
			}
		}
	})
}
