package sql

import (
	"math/rand"
	"testing"

	"madlib/internal/engine"
)

// exprLaneSeeds are FuzzExprLanes seeds beyond typedFastPathCases: mixed
// int/float arithmetic, comparisons and scalar functions, the division
// and overflow edges the batch differential pins, and constant-only
// expressions for the FROM-less path.
var exprLaneSeeds = []string{
	"f + i", "f - i * 2", "f / 0.5", "i % 2", "abs(i)", "abs(f)",
	"floor(f)", "ceil(f)", "exp(0)", "f < i", "f <> i", "s >= 'w'",
	"-f + -i", "NOT (f > i)", "(f + 1) * (i - 1)",
	"10 / i", "10 % i", "10.5 / f", "f % 0", "1 / 0", "i <> 0 AND 100 / i > 2",
	"i = 0 OR 100 / i > 2", "NOT (i <> 0 AND 100 / i > 2)", "i * i", "i - 1 + i",
	"f = 0", "s <> 's0'", "sqrt(abs(f))", "pow(abs(f), 0.5)", "floor(f) <= 10",
	"exp(0) = 1", "array_get(v, 1) >= 0", "array_get(v, 2)", "{g, f}",
	"1 + 2 * 3", "7.5 / 2", "'x' = 'x'", "NOT false", "2 % 0", "-(3 - 5)",
	"length('abc')", "1 + 'a'", "false AND 'x'", "true OR 1 / 0 > 1",
	// Every scalar function over a column that the twin pads with NULL.
	"abs(d.i)", "abs(d.f)", "sqrt(d.f)", "exp(d.f)", "ln(d.f)", "floor(d.f)",
	"ceil(d.f)", "pow(d.f, 2)", "power(2, d.i)", "pow(d.f, d.i)", "length(d.s)",
	"length(d.v)", "array_length(d.v)", "array_get(d.v, 1)",
}

// exprErrorSources counts the distinct runtime error texts e can raise:
// every division or modulo raises "division by zero", array_get its own
// range error, and over the LEFT JOIN-padded twin (padded) every
// non-constant array literal fails on a NULL element with its own text.
// Scalar functions are strict, so a NULL argument raises nothing.
func exprErrorSources(e Expr, padded bool) int {
	sources := map[string]bool{}
	walkExpr(e, func(x Expr) {
		switch n := x.(type) {
		case *Binary:
			if n.Op == "/" || n.Op == "%" {
				sources["/"] = true
			}
		case *FuncCall:
			if n.Name == "array_get" {
				sources[n.String()] = true
			}
		case *ArrayLit:
			if padded {
				sources[n.String()] = true
			}
		}
	})
	return len(sources)
}

// exprRefsColumn reports whether e reads any column.
func exprRefsColumn(e Expr) bool {
	refs := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*ColumnRef); ok {
			refs = true
		}
	})
	return refs
}

// laneOutcome runs query and renders its result or its error text.
func laneOutcome(sess *Session, query string) string {
	res, err := sess.Query(query)
	if err != nil {
		return "error: " + err.Error()
	}
	return res.Format()
}

// FuzzExprLanes evaluates one scalar expression every way the executor
// can and requires the same rows and error text: in oracle mode (every
// consumer a compiled row closure) and in default mode (native batch
// kernels where they exist), as a projection, as a WHERE clause, as the
// argument of ungrouped and grouped aggregates and as an ORDER BY …
// LIMIT key (typed key lanes against boxed ones), over a small typed
// table and over its LEFT JOIN-padded twin (where every column can be
// NULL); an expression with no column references must also
// give the same value or error on the FROM-less path. When one
// expression can raise two different runtime errors, which text a
// statement reports depends on evaluation order, which legitimately
// differs between a column-at-a-time kernel and a row-at-a-time closure:
// such an expression is skipped on the table where it can.
func FuzzExprLanes(f *testing.F) {
	for _, tc := range typedFastPathCases {
		f.Add(tc.expr)
	}
	for _, e := range exprLaneSeeds {
		f.Add(e)
	}
	g := &exprGen{rng: rand.New(rand.NewSource(11))}
	for i := 0; i < 20; i++ {
		f.Add(g.numExpr(3))
		f.Add(g.boolExpr(3))
	}
	db := newDiffDB(f, 40)
	keys, err := db.CreateTable("keys", engine.Schema{{Name: "k", Kind: engine.Int}})
	if err != nil {
		f.Fatal(err)
	}
	for k := 0; k < 10; k++ { // d.g is 0..6: keys 7..9 pad
		if err := keys.Insert(int64(k)); err != nil {
			f.Fatal(err)
		}
	}
	batchSess, rowSess := NewSession(db), NewSession(db)
	rowSess.SetBatchExecution(false)
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 300 {
			return
		}
		st, err := ParseStatement("SELECT " + input)
		if err != nil {
			return
		}
		sel, ok := st.(*Select)
		if !ok || len(sel.Items) != 1 || sel.Items[0].Star || sel.Items[0].Expand || sel.From != "" ||
			sel.Where != nil || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || sel.Limit >= 0 {
			return
		}
		e := sel.Items[0].Expr
		scalar := true
		walkExpr(e, func(x Expr) {
			if fc, ok := x.(*FuncCall); ok && (fc.Schema != "" || fc.Over != nil || isAggregateCall(fc)) {
				scalar = false
			}
			if _, ok := x.(*Param); ok {
				scalar = false
			}
		})
		if !scalar {
			return
		}
		text := e.String()
		var forms []string
		if exprErrorSources(e, false) <= 1 {
			forms = append(forms, "SELECT "+text+" FROM d", "SELECT i FROM d WHERE "+text,
				"SELECT count("+text+"), min("+text+"), max("+text+") FROM d",
				"SELECT g, count("+text+"), max("+text+") FROM d GROUP BY g",
				"SELECT i, "+text+" FROM d ORDER BY "+text+" DESC LIMIT 3")
			if !exprRefsColumn(e) {
				want := laneOutcome(rowSess, "SELECT "+text+" FROM d LIMIT 1")
				if got := laneOutcome(batchSess, "SELECT "+text); got != want {
					t.Fatalf("%s: FROM-less path\n%s\nover a table\n%s", text, got, want)
				}
			}
		}
		if exprErrorSources(e, true) <= 1 {
			const twin = " FROM keys LEFT JOIN d ON keys.k = d.g"
			forms = append(forms, "SELECT "+text+twin, "SELECT keys.k"+twin+" WHERE "+text,
				"SELECT count("+text+"), min("+text+"), max("+text+")"+twin,
				"SELECT keys.k, count("+text+"), max("+text+")"+twin+" GROUP BY keys.k",
				"SELECT keys.k, "+text+twin+" ORDER BY "+text+" DESC LIMIT 3")
		}
		for _, q := range forms {
			if got, want := laneOutcome(batchSess, q), laneOutcome(rowSess, q); got != want {
				t.Fatalf("%s\n--- default mode ---\n%s\n--- oracle mode ---\n%s", q, got, want)
			}
		}
	})
}
