package sql

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"madlib/internal/engine"
)

// scalarEdges are the edge values of each argument kind, written as SQL
// expressions with no function call: NaN, ±Inf, −0, −1 and 0 (sqrt(-1),
// ln(0), pow(0, -1)), the minimum int64 (abs wraps it), the empty text
// and array, and array indexes 0 and len+1.
var scalarEdges = map[engine.Kind][]string{
	engine.Int:    {"0", "1", "2", "3", "-1", "-9223372036854775807 - 1", "9223372036854775807"},
	engine.Float:  {"0.0", "-0.0", "-1.0", "0.5", "2.5", "-2.5", "1e300 * 1e10", "-1e300 * 1e10", "1e300 * 1e10 - 1e300 * 1e10"},
	engine.String: {"''", "'a'", "'héllo'"},
	engine.Bool:   {"true", "false"},
	engine.Vector: {"{}", "ARRAY[1.5, -2]", "{3}"},
}

// scalarOutcome renders a one-value result bit for bit, or its error.
func scalarOutcome(res *Result, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case len(res.Rows) != 1 || len(res.Rows[0]) != 1:
		return fmt.Sprintf("rows %v", res.Rows)
	}
	switch v := res.Rows[0][0].(type) {
	case float64:
		return fmt.Sprintf("float %#016x", math.Float64bits(v))
	case nil:
		return "NULL"
	default:
		return fmt.Sprintf("%T %v", v, v)
	}
}

// TestScalarFuncsAgree evaluates every built-in scalar function over the
// edge values of every argument kind — each kind a form takes, and the
// first value of each kind no form takes — and requires identical bits
// or identical error text from the batch kernel (default mode), the
// closure (oracle mode), the run-time dispatch (the arguments bound as
// $1 and $2 to a prepared statement, and as aggregate slots f(max(x)))
// and the FROM-less path. Where every argument kind has a lane, the
// default mode must have lowered the call to its kernel.
func TestScalarFuncsAgree(t *testing.T) {
	db := engine.Open(2)
	sess, oracle := NewSession(db), NewSession(db)
	oracle.SetBatchExecution(false)
	ctx := context.Background()
	value := func(expr string) any {
		t.Helper()
		res, err := sess.Query("SELECT " + expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		return res.Rows[0][0]
	}
	kinds := []engine.Kind{engine.Int, engine.Float, engine.String, engine.Bool, engine.Vector}
	// One table per argument-kind combination, holding every tuple of
	// edge values as the FROM-less path makes them.
	tables := map[string][][]string{}
	table := func(combo []engine.Kind) (string, [][]string) {
		name := "t"
		schema := engine.Schema{{Name: "id", Kind: engine.Int}}
		tuples := [][]string{nil}
		for i, k := range combo {
			name += fmt.Sprintf("_%d", k)
			schema = append(schema, engine.Column{Name: []string{"x", "y"}[i], Kind: k})
			var next [][]string
			for _, tu := range tuples {
				for _, e := range scalarEdges[k] {
					next = append(next, append(slices.Clone(tu), e))
				}
			}
			tuples = next
		}
		if _, ok := tables[name]; !ok {
			tbl, err := db.CreateTable(name, schema)
			if err != nil {
				t.Fatal(err)
			}
			for id, tu := range tuples {
				row := []any{int64(id)}
				for _, e := range tu {
					row = append(row, value(e))
				}
				if err := tbl.Insert(row...); err != nil {
					t.Fatal(err)
				}
			}
			tables[name] = tuples
		}
		return name, tuples
	}
	names := make([]string, 0, len(scalarFuncs))
	for name := range scalarFuncs {
		names = append(names, name)
	}
	slices.Sort(names)
	compared := 0
	for _, name := range names {
		fn := scalarFuncs[name]
		params := []string{"$1", "$2"}[:fn.arity]
		slots := []string{"max(x)", "max(y)"}[:fn.arity]
		cols := []string{"x", "y"}[:fn.arity]
		call := func(args []string) string { return name + "(" + strings.Join(args, ", ") + ")" }
		if _, err := sess.Exec("PREPARE q_" + name + " AS SELECT " + call(params)); err != nil {
			t.Fatal(err)
		}
		combos := [][]engine.Kind{}
		for _, a := range kinds {
			if fn.arity == 1 {
				combos = append(combos, []engine.Kind{a})
				continue
			}
			for _, b := range kinds {
				combos = append(combos, []engine.Kind{a, b})
			}
		}
		for _, combo := range combos {
			ck := make([]ckind, len(combo))
			lanes := true
			for i, k := range combo {
				ck[i] = kindOf(k)
				lanes = lanes && k != engine.Vector && k != engine.Bool
			}
			_, kindErr := fn.match(name, ck)
			tname, tuples := table(combo)
			if kindErr != nil {
				tuples = tuples[:1]
			}
			for id, tu := range tuples {
				where := fmt.Sprintf(" FROM %s WHERE id = %d", tname, id)
				q := "SELECT " + call(cols) + where
				vals := make([]any, len(tu))
				for i, e := range tu {
					vals[i] = value(e)
				}
				outcomes := [][2]string{
					{"kernel", scalarOutcome(sess.Query(q))},
					{"closure", scalarOutcome(oracle.Query(q))},
					{"param", scalarOutcome(sess.ExecutePreparedContext(ctx, "q_"+name, vals))},
					{"slot", scalarOutcome(sess.Query("SELECT " + call(slots) + where))},
					{"from-less", scalarOutcome(sess.Query("SELECT " + call(tu)))},
				}
				for _, o := range outcomes[1:] {
					if o[1] != outcomes[0][1] {
						t.Errorf("%s over %v: %s %s, %s %s", call(tu), combo, outcomes[0][0], outcomes[0][1], o[0], o[1])
					}
				}
				compared++
				if kindErr == nil && lanes && id == 0 {
					pl, err := sess.planStmt(mustParseStmt(t, q))
					if err != nil {
						t.Fatal(err)
					}
					if sp, ok := pl.(*scanPlan); !ok || sp.items[0].rowFn != nil {
						t.Errorf("%s over %v did not lower to its kernel", call(cols), combo)
					}
				}
			}
		}
	}
	if compared < 500 {
		t.Fatalf("compared %d evaluations", compared)
	}
}
