package sql

import (
	"maps"
	"slices"
	"sync/atomic"

	"madlib/internal/engine"
)

// Window functions — fn(args) OVER (PARTITION BY ... ORDER BY ...) —
// lower onto engine.RunWindow, the §3.1.2 "window aggregates for
// stateful iteration" primitive: partitions fold in parallel, rows
// within a partition fold sequentially in ORDER BY order, carrying
// state. Supported functions:
//
//	row_number()      position within the partition (1-based)
//	rank()            like row_number, but ORDER BY peers share a rank
//	                  (with gaps)
//	count(x|*)        running count up to the current row
//	sum(x), avg(x)    running sum/average up to the current row
//
// The running aggregates use ROWS BETWEEN UNBOUNDED PRECEDING AND
// CURRENT ROW framing (each row sees exactly the rows before it plus
// itself, ORDER BY peers are NOT collapsed — this deviates from the SQL
// default RANGE framing and is pinned by the logictest corpus). ORDER
// BY inside OVER is mandatory: whole-partition frames would require a
// second pass, so they are rejected instead of emitting running values
// that depend on storage order.
//
// The fold itself is row-at-a-time by definition — each row's output
// depends on the partition state — but the input side runs on the batch
// executor: the gather pass is morsel-parallel, WHERE filters each batch
// into a selection vector and the PARTITION BY / OVER-ORDER BY keys
// evaluate column-wise into a key chunk, each through its native batch
// kernel or, where it has none (Vector operands, madlib calls,
// parameters), through its row closure driven over the selection. The
// output items and the outer ORDER BY keys are compiled over the input
// row plus a slot vector per partition: the window values, then the
// output items, which ORDER BY keys may name by alias. The gather and
// the fold run under one read latch on the input (RunWindowBatched).

// windowFuncs names the supported window functions.
var windowFuncs = map[string]bool{
	"row_number": true, "rank": true, "count": true, "sum": true, "avg": true,
}

// windowSlotSpec is one window call lowered against the input schema.
type windowSlotSpec struct {
	name string
	// arg is the compiled argument of sum/avg/count(x); nil for
	// row_number, rank and count(*).
	arg anyFn
}

// windowPlan executes a SELECT whose item list contains window calls.
// All calls must share one window specification. The plan gathers the
// rows WHERE keeps into partitions with their order keys (gather), then
// folds each partition.
type windowPlan struct {
	src *planSource
	st  *Select

	// The gather pipeline: WHERE plus one projItem per PARTITION BY and
	// OVER-ORDER BY expression. native reports whether any of them took
	// its batch kernel (EXPLAIN's lane line reads "row" otherwise).
	prog      *batchProg
	pred      bBatchKernel // nil when the query has no WHERE
	partItems []*projItem
	ordItems  []*projItem
	native    bool
	ordDesc   []bool

	specs []windowSlotSpec

	outNames []string
	outKinds []ckind // static output kinds, for RowDescription
	items    []anyFn
	keys     []sortKey
	order    sortSpec // the outer ORDER BY … LIMIT
}

// planWindowSelect validates and lowers a window query.
func planWindowSelect(st *Select, lw *lowering) (stmtPlan, error) {
	if len(st.GroupBy) > 0 || st.Having != nil {
		return nil, execErrf("window functions cannot be combined with GROUP BY or HAVING")
	}
	if st.Distinct {
		return nil, execErrf("SELECT DISTINCT cannot be combined with window functions")
	}
	p := &windowPlan{src: lw.cc.src, st: st, order: newSortSpec(st)}
	cc := lw.cc

	// Collect window calls into slots; all must share one spec.
	slotOf := map[*FuncCall]int{}
	var over *OverClause
	for _, item := range st.Items {
		if item.Star {
			return nil, execErrf("SELECT * cannot be combined with window functions")
		}
		if exprHasAgg(item.Expr) {
			return nil, execErrf("window functions cannot be combined with aggregate functions")
		}
		for _, call := range collectWindowCalls(item.Expr) {
			if _, done := slotOf[call]; done {
				continue
			}
			if call.Schema != "" {
				return nil, execErrf("%s.%s(...) OVER is not a window function", call.Schema, call.Name)
			}
			if !windowFuncs[call.Name] {
				return nil, execErrf("%s(...) OVER is not a supported window function (row_number, rank, count, sum, avg)", call.Name)
			}
			if over == nil {
				over = call.Over
			} else if call.Over.String() != over.String() {
				return nil, execErrf("all window functions in one SELECT must share the same OVER clause")
			}
			spec := windowSlotSpec{name: call.Name}
			switch call.Name {
			case "row_number", "rank":
				if call.Star || len(call.Args) != 0 {
					return nil, execErrf("%s() takes no arguments", call.Name)
				}
			case "count":
				if !call.Star && len(call.Args) != 1 {
					return nil, execErrf("count(...) OVER takes * or exactly one argument")
				}
			default: // sum, avg
				if call.Star || len(call.Args) != 1 {
					return nil, execErrf("%s(...) OVER takes exactly one argument", call.Name)
				}
			}
			if !call.Star && len(call.Args) == 1 {
				c, err := compileExpr(call.Args[0], cc)
				if err != nil {
					return nil, err
				}
				if (call.Name == "sum" || call.Name == "avg") && c.kind != ckAny && !c.isNumeric() {
					return nil, execErrf("%s: argument is %s, not numeric", call.Name, c.kind)
				}
				spec.arg = c.a
			}
			slotOf[call] = len(p.specs)
			p.specs = append(p.specs, spec)
		}
	}
	if len(over.OrderBy) == 0 {
		// Whole-partition frames (OVER without ORDER BY) would need the
		// partition total on every row; the single streaming fold only
		// yields running values, which would be storage-order dependent.
		// Reject rather than return silently wrong numbers.
		return nil, execErrf("window functions require ORDER BY in the OVER clause (whole-partition frames are not supported yet)")
	}

	// Lower the window spec and WHERE.
	for _, pe := range over.PartitionBy {
		pi, err := lw.item(pe)
		if err != nil {
			return nil, err
		}
		p.partItems = append(p.partItems, pi)
		p.native = p.native || pi.rowFn == nil
	}
	for _, k := range over.OrderBy {
		pi, err := lw.item(k.Expr)
		if err != nil {
			return nil, err
		}
		p.ordItems = append(p.ordItems, pi)
		p.ordDesc = append(p.ordDesc, k.Desc)
		p.native = p.native || pi.rowFn == nil
	}
	pred, nativePred, err := lw.predicate(st.Where)
	if err != nil {
		return nil, err
	}
	p.pred, p.native, p.prog = pred, p.native || nativePred, lw.bc.prog

	p.outNames = make([]string, len(st.Items))
	p.outKinds = itemKinds(st.Items, p.src.schema)
	for i, item := range st.Items {
		p.outNames[i] = outputName(item)
	}
	icc := *cc
	icc.slotCalls = slotOf
	p.items = make([]anyFn, len(st.Items))
	for i, item := range st.Items {
		c, err := compileExpr(item.Expr, &icc)
		if err != nil {
			return nil, err
		}
		p.items[i] = c.a
	}
	if p.keys, err = compileSortKeys(st.OrderBy, len(st.Items), outputCompileCtx(&icc, p.outNames, len(p.specs))); err != nil {
		return nil, err
	}
	return p, nil
}

// winRow is one gathered input row: its handle, its encoded partition
// key, and its boxed PARTITION BY values followed by its OVER-ORDER BY
// key tuple.
type winRow struct {
	row  engine.Row
	part string
	keys []any
}

// gather filters the input and evaluates every surviving row's
// partition and order keys, in table order (so ORDER BY ties break
// identically at any worker count), over the scan RunWindowBatched hands
// it. It returns the row handles grouped by encoded partition key, and
// fills partVals with each partition's key values (for the default
// output order) and ordCache with each row's order-key tuple (for the
// partition sort comparator).
func (p *windowPlan) gather(env *execEnv, morsels int, scan batchScan, partVals map[string][]any, ordCache map[engine.Row][]any) (map[string][]engine.Row, error) {
	np := len(p.partItems)
	keyItems := append(append([]*projItem(nil), p.partItems...), p.ordItems...)
	accs, err := gatherBatches(env, morsels, scan, p.prog, p.pred, func(e *batchEval, b engine.ColBatch, sel selVec, acc *[]winRow) error {
		// The batch's keys evaluate into a chunk and box into one cell
		// array that outlives the batch: its sub-slices are what land in
		// partVals and ordCache.
		keys := Chunk{n: len(sel), cols: make([]chunkCol, len(keyItems))}
		for i, pi := range keyItems {
			if err := pi.appendTo(e, b, sel, &keys.cols[i], 1); err != nil {
				return err
			}
		}
		boxed := keys.appendBoxed(nil)
		var buf []byte
		for j, idx := range sel {
			buf = buf[:0]
			for _, v := range boxed[j][:np] {
				buf = appendValKey(buf, v)
			}
			*acc = append(*acc, winRow{row: b.Row(int(idx)), part: string(buf), keys: boxed[j]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	parts := map[string][]engine.Row{}
	for _, rows := range accs {
		for _, wr := range rows {
			if _, seen := parts[wr.part]; !seen {
				partVals[wr.part] = wr.keys[:np]
			}
			parts[wr.part] = append(parts[wr.part], wr.row)
			ordCache[wr.row] = wr.keys[np:]
		}
	}
	return parts, nil
}

func (p *windowPlan) valid(db *engine.DB) bool { return p.src.valid(db) }

func (p *windowPlan) columns() []string { return p.outNames }

func (p *windowPlan) kinds() []ckind { return p.outKinds }

// windowState is one partition's fold state. env carries the partition's
// slot vector (windowPlan's layout) beside the execution's parameters.
type windowState struct {
	pos     int64
	rank    int64
	prevOrd []any
	hasPrev bool
	accs    []*numAccState // running sum/avg/count accumulators per slot
	env     *execEnv
}

func (p *windowPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	input, err := p.src.acquire(s, env.context())
	if err != nil {
		return nil, err
	}

	// stepErr captures the first evaluation error from inside the order
	// comparator and the step closure (the engine fold's contracts cannot
	// fail).
	var stepErr atomic.Value
	fail := func(err error) {
		stepErr.CompareAndSwap(nil, err)
	}

	// ordCache holds every gathered row's OVER-ORDER BY key tuple, boxed
	// once per row by the gather. The per-partition sort goroutines then
	// only read the finished cache — O(n) evaluations instead of
	// O(n log n) inside the comparator.
	ordCache := map[engine.Row][]any{}
	partVals := map[string][]any{}
	gather := func(morsels int, scan func(func(int, engine.ColBatch) error) error) (map[string][]engine.Row, error) {
		return p.gather(env, morsels, scan, partVals, ordCache)
	}
	orderBy := func(a, b engine.Row) bool {
		av, bv := ordCache[a], ordCache[b]
		for i := range av {
			c, err := compareOrderKeys(av[i], bv[i])
			if err != nil {
				fail(err)
				return false
			}
			if c != 0 {
				if p.ordDesc[i] {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	}

	nSpecs := len(p.specs)
	init := func() any {
		st := &windowState{accs: make([]*numAccState, nSpecs), env: env.withSlots(nSpecs + len(p.items))}
		for i := range p.specs {
			st.accs[i] = &numAccState{intOnly: true}
		}
		return st
	}
	step := func(state any, row engine.Row) (any, any) {
		ws := state.(*windowState)
		if stepErr.Load() != nil {
			return ws, nil
		}
		ws.pos++
		// rank(): peers (equal ORDER BY keys) share the rank of their
		// first row; a new key value jumps to the current position.
		if len(p.ordItems) > 0 {
			ov := ordCache[row]
			same := ws.hasPrev
			if same {
				for i := range ov {
					c, err := compareOrderKeys(ov[i], ws.prevOrd[i])
					if err != nil {
						fail(err)
						return ws, nil
					}
					if c != 0 {
						same = false
						break
					}
				}
			}
			if !same {
				ws.rank = ws.pos
			}
			ws.prevOrd, ws.hasPrev = ov, true
		} else {
			ws.rank = ws.pos
		}
		slots := ws.env.slots
		for i, sp := range p.specs {
			switch sp.name {
			case "row_number":
				slots[i] = ws.pos
			case "rank":
				slots[i] = ws.rank
			case "count":
				acc := ws.accs[i]
				if sp.arg != nil {
					v, err := sp.arg(row, ws.env)
					if err != nil {
						fail(err)
						return ws, nil
					}
					if v != nil {
						acc.n++
					}
				} else {
					acc.n++
				}
				slots[i] = acc.n
			case "sum", "avg":
				acc := ws.accs[i]
				v, err := sp.arg(row, ws.env)
				if err != nil {
					fail(err)
					return ws, nil
				}
				if err := numAccAdd(acc, sp.name, v); err != nil {
					fail(err)
					return ws, nil
				}
				slots[i], _ = numAccFinal(sp.name)(acc) // cannot fail
			}
		}
		// The projection, then the outer ORDER BY keys, with this row's
		// window values bound.
		out := make([]any, len(p.items), len(p.items)+len(p.keys))
		for i, fn := range p.items {
			v, err := fn(row, ws.env)
			if err != nil {
				fail(err)
				return ws, nil
			}
			out[i], slots[nSpecs+i] = v, v
		}
		out, err := evalSortKeys(p.keys, row, out, ws.env)
		if err != nil {
			fail(err)
			return ws, nil
		}
		return ws, out
	}

	folded, err := s.db.RunWindowBatched(env.context(), input, gather, orderBy, init, step)
	if err != nil {
		return nil, err
	}
	if e := stepErr.Load(); e != nil {
		return nil, e.(error)
	}

	// Deterministic default order: partitions ascending by their key
	// values (the encoded map key is injective but not order-preserving),
	// equal values of different kinds in encoded-key order, rows within a
	// partition in window order.
	partKeys := slices.Sorted(maps.Keys(folded))
	vals := make([][]any, len(partKeys))
	for i, pk := range partKeys {
		vals[i] = partVals[pk]
	}
	perm, err := ascending(s.db, vals, len(p.partItems))
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for _, i := range perm {
		for _, v := range folded[partKeys[i]] {
			rows = append(rows, v.([]any))
		}
	}
	return finishSelect(s.db, p.outNames, p.outKinds, rows, false, p.order)
}
