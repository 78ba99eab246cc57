package main

import (
	"madlib/internal/engine"
)

// The direct calls are the ladder's bottom rung: the work of a statement
// written straight against the engine's batch drivers, with no SQL layer
// above it. Timing.Exec minus a direct call is the executor's self time.

type groupAcc struct {
	n   int64
	sum float64
}

// directGroupAgg is "SELECT g, sum(v), count(*) FROM table WHERE v > thr
// GROUP BY g" over RunGroupByBatched.
func directGroupAgg(db *engine.DB, table string, gCol, vCol int, thr float64) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	_, err = db.RunGroupByBatched(t,
		func(int) any { return map[engine.GroupKey]any{} },
		func(state any, b engine.ColBatch) error {
			groups := state.(map[engine.GroupKey]any)
			gs, vs := b.Ints(gCol), b.Floats(vCol)
			for i, v := range vs {
				if v > thr {
					k := engine.GroupKey{Int: gs[i]}
					a, ok := groups[k].(*groupAcc)
					if !ok {
						a = &groupAcc{}
						groups[k] = a
					}
					a.n++
					a.sum += v
				}
			}
			return nil
		},
		func(state any) map[engine.GroupKey]any { return state.(map[engine.GroupKey]any) },
		func(x, y any) any {
			a, b := x.(*groupAcc), y.(*groupAcc)
			a.n += b.n
			a.sum += b.sum
			return a
		})
	return err
}

// directScore is "SELECT count(*) FROM table WHERE coef . (cols) > thr"
// over RunBatched, the fused predict kernel's work.
func directScore(db *engine.DB, table string, cols []int, coef []float64, thr float64) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	_, err = db.RunBatched(t,
		func(int) any { return new(int64) },
		func(state any, b engine.ColBatch) error {
			n := state.(*int64)
			for i := 0; i < b.Len(); i++ {
				var s float64
				for j, c := range cols {
					s += coef[j] * b.Floats(c)[i]
				}
				if s > thr {
					*n++
				}
			}
			return nil
		},
		func(x, y any) any { *x.(*int64) += *y.(*int64); return x })
	return err
}

// directRange is "SELECT id, g, v, label FROM table WHERE id >= lo AND
// id < lo+n" boxed into [][]any, the shape the executor hands the wire.
// Columns are (id, g, k, v, label).
func directRange(db *engine.DB, table string, lo, n int64) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	_, err = db.RunBatched(t,
		func(int) any { return new([][]any) },
		func(state any, b engine.ColBatch) error {
			out := state.(*[][]any)
			ids, gs, vs, labels := b.Ints(0), b.Ints(1), b.Floats(3), b.Strings(4)
			for i, id := range ids {
				if id >= lo && id < lo+n {
					*out = append(*out, []any{id, gs[i], vs[i], labels[i]})
				}
			}
			return nil
		},
		func(x, y any) any { *x.(*[][]any) = append(*x.(*[][]any), *y.(*[][]any)...); return x })
	return err
}
