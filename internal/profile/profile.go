// Package profile implements the data-profiling module, the paper's
// flagship example of templated queries (§3.1.3): it "takes an arbitrary
// table as input, producing univariate summary statistics for each of its
// columns", by interrogating the catalog for the input schema and
// synthesizing one aggregate query per column whose shape depends on the
// column's type.
package profile

import (
	"errors"
	"fmt"
	"math"

	"madlib/internal/core"
	"madlib/internal/engine"
	"madlib/internal/quantile"
	"madlib/internal/sketch"
)

func init() {
	core.RegisterMethod(core.MethodInfo{Name: "profile", Title: "Data Profiling", Category: core.Descriptive})
}

// ColumnProfile is the per-column output record. Fields not applicable to
// the column's type are NaN / nil.
type ColumnProfile struct {
	// Name and Kind identify the column.
	Name string
	Kind engine.Kind
	// Rows is the table row count.
	Rows int64
	// Distinct is the FM-estimated distinct-value count.
	Distinct int64
	// Min, Max, Mean, Variance are numeric summaries (Float/Int columns).
	Min, Max, Mean, Variance float64
	// Quantiles are the GK-approximated quartiles (25/50/75) for numeric
	// columns.
	Quantiles []float64
	// MostFrequent holds up to 5 most frequent values for Int columns.
	MostFrequent []sketch.FrequentValue
	// MinLen, MaxLen, AvgLen summarize String columns.
	MinLen, MaxLen int
	AvgLen         float64
}

// TableProfile is the whole-table output.
type TableProfile struct {
	Table   string
	Rows    int64
	Columns []ColumnProfile
}

// Run profiles the named table. The table name is validated up front,
// producing a friendly error rather than the "enigmatic" late failure the
// paper warns about.
func Run(db *engine.DB, tableName string) (*TableProfile, error) {
	if err := core.ValidateIdentifier(tableName); err != nil {
		return nil, err
	}
	t, err := db.Table(tableName)
	if err != nil {
		return nil, err
	}
	return RunTable(db, t)
}

// RunTable profiles t, which need not be in the catalog (madlib.profile()
// hands it a SELECT's staged input). The column list is read from t's
// schema, and per-kind aggregates are synthesized — the templated-query
// pattern.
func RunTable(db *engine.DB, t *engine.Table) (*TableProfile, error) {
	out := &TableProfile{Table: t.Name(), Rows: t.Count()}
	for ci, col := range t.Schema() {
		p, err := profileColumn(db, t, ci, col)
		if err != nil {
			return nil, fmt.Errorf("profile: column %q: %w", col.Name, err)
		}
		p.Rows = out.Rows
		out.Columns = append(out.Columns, *p)
	}
	return out, nil
}

// numericState accumulates the one-pass numeric summary.
type numericState struct {
	n                  int64
	min, max, sum, ssq float64
}

func profileColumn(db *engine.DB, t *engine.Table, ci int, col engine.Column) (*ColumnProfile, error) {
	p := &ColumnProfile{Name: col.Name, Kind: col.Kind,
		Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), Variance: math.NaN()}

	// Distinct count via FM for scalar kinds.
	if col.Kind != engine.Vector {
		v, err := db.Run(t, sketch.FMAggregate(ci, col.Kind))
		if err != nil {
			return nil, err
		}
		p.Distinct = v.(int64)
	}

	switch col.Kind {
	case engine.Float, engine.Int:
		read := func(r engine.Row) float64 {
			if col.Kind == engine.Int {
				return float64(r.Int(ci))
			}
			return r.Float(ci)
		}
		v, err := db.Run(t, engine.FuncAggregate{
			InitFn: func() any { return &numericState{min: math.Inf(1), max: math.Inf(-1)} },
			TransitionFn: func(s any, r engine.Row) any {
				st := s.(*numericState)
				x := read(r)
				st.n++
				st.sum += x
				st.ssq += x * x
				if x < st.min {
					st.min = x
				}
				if x > st.max {
					st.max = x
				}
				return st
			},
			MergeFn: func(a, b any) any {
				sa, sb := a.(*numericState), b.(*numericState)
				sa.n += sb.n
				sa.sum += sb.sum
				sa.ssq += sb.ssq
				if sb.min < sa.min {
					sa.min = sb.min
				}
				if sb.max > sa.max {
					sa.max = sb.max
				}
				return sa
			},
			FinalFn: func(s any) (any, error) { return s, nil },
		})
		if err != nil {
			return nil, err
		}
		st := v.(*numericState)
		if st.n > 0 {
			p.Min, p.Max = st.min, st.max
			p.Mean = st.sum / float64(st.n)
			if st.n > 1 {
				p.Variance = (st.ssq - st.sum*st.sum/float64(st.n)) / float64(st.n-1)
				if p.Variance < 0 {
					p.Variance = 0
				}
			}
			// Quartiles via a GK aggregate (synthesized only for numeric
			// columns — the "output schema is a function of the input
			// schema" behaviour).
			if col.Kind == engine.Float {
				qv, err := db.Run(t, quantile.GKAggregate(ci, 0.01, []float64{0.25, 0.5, 0.75}))
				if err != nil {
					return nil, err
				}
				p.Quantiles = qv.([]float64)
			} else {
				qv, err := db.Run(t, quantile.GKAggregateInt(ci, 0.01, []float64{0.25, 0.5, 0.75}))
				if err != nil {
					return nil, err
				}
				p.Quantiles = qv.([]float64)
			}
		}
		if col.Kind == engine.Int {
			// Most-frequent values for integer codes.
			mv, err := db.Run(t, mfvAggregate(ci, 5))
			if err != nil {
				return nil, err
			}
			p.MostFrequent = mv.([]sketch.FrequentValue)
		}
	case engine.String:
		type strState struct {
			n                int64
			minLen, maxLen   int
			totalLen         int64
			haveShortestInit bool
		}
		v, err := db.Run(t, engine.FuncAggregate{
			InitFn: func() any { return &strState{minLen: math.MaxInt} },
			TransitionFn: func(s any, r engine.Row) any {
				st := s.(*strState)
				l := len(r.Str(ci))
				st.n++
				st.totalLen += int64(l)
				if l < st.minLen {
					st.minLen = l
				}
				if l > st.maxLen {
					st.maxLen = l
				}
				return st
			},
			MergeFn: func(a, b any) any {
				sa, sb := a.(*strState), b.(*strState)
				sa.n += sb.n
				sa.totalLen += sb.totalLen
				if sb.minLen < sa.minLen {
					sa.minLen = sb.minLen
				}
				if sb.maxLen > sa.maxLen {
					sa.maxLen = sb.maxLen
				}
				return sa
			},
			FinalFn: func(s any) (any, error) { return s, nil },
		})
		if err != nil {
			return nil, err
		}
		st := v.(*strState)
		if st.n > 0 {
			p.MinLen, p.MaxLen = st.minLen, st.maxLen
			p.AvgLen = float64(st.totalLen) / float64(st.n)
		}
	case engine.Vector, engine.Bool:
		// Distinct (Bool) or nothing (Vector) — no further summaries.
	}
	return p, nil
}

// mfvAggregate runs an MFV sketch over an Int column.
func mfvAggregate(col, k int) engine.Aggregate {
	return engine.FuncAggregate{
		InitFn: func() any {
			m, err := sketch.NewMFV(k, 0.001, 0.01)
			if err != nil {
				panic(err) // constants are valid
			}
			return m
		},
		TransitionFn: func(s any, r engine.Row) any {
			m := s.(*sketch.MFV)
			m.Add(r.Int(col))
			return m
		},
		MergeFn: func(a, b any) any {
			ma := a.(*sketch.MFV)
			if err := ma.Merge(b.(*sketch.MFV)); err != nil {
				panic(err) // same parameters by construction
			}
			return ma
		},
		FinalFn: func(s any) (any, error) { return s.(*sketch.MFV).Top(), nil },
	}
}

// ErrEmptyTable is reported in string form by Format for empty inputs.
var ErrEmptyTable = errors.New("profile: table is empty")

// Format renders a profile as an aligned text report.
func (tp *TableProfile) Format() string {
	out := fmt.Sprintf("table %q: %d rows, %d columns\n", tp.Table, tp.Rows, len(tp.Columns))
	for _, c := range tp.Columns {
		out += fmt.Sprintf("  %-16s %-20s distinct≈%-8d", c.Name, c.Kind.String(), c.Distinct)
		switch c.Kind {
		case engine.Float, engine.Int:
			out += fmt.Sprintf(" min=%.4g max=%.4g mean=%.4g var=%.4g", c.Min, c.Max, c.Mean, c.Variance)
			if len(c.Quantiles) == 3 {
				out += fmt.Sprintf(" q25=%.4g q50=%.4g q75=%.4g", c.Quantiles[0], c.Quantiles[1], c.Quantiles[2])
			}
		case engine.String:
			out += fmt.Sprintf(" len[min=%d max=%d avg=%.1f]", c.MinLen, c.MaxLen, c.AvgLen)
		}
		out += "\n"
	}
	return out
}
