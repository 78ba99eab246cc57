package sql

import (
	"runtime"
	"slices"
	"sync"

	"madlib/internal/engine"
)

// Window functions — fn(args) OVER (PARTITION BY ... ORDER BY ...) —
// are the §3.1.2 "window aggregates for stateful iteration" primitive:
// rows within a partition fold sequentially in ORDER BY order, carrying
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
// evaluate column-wise into the morsel's typed key chunk beside the
// rows' handles, each key through its native batch kernel or, where it
// has none (Vector operands, madlib calls, parameters), through its row
// closure driven over the selection into a boxed lane. One sort orders
// the concatenated chunk with ORDER BY's comparator (sortSpec.perm):
// partition keys in ASC order, then the order keys, then table position.
// That permutation is the fold order and the default output order at
// once. Neighbours whose partition lanes compare unequal start a
// partition and neighbours whose order lanes compare equal are rank()
// peers; the partitions fold as contiguous runs of the permutation on
// at most GOMAXPROCS goroutines, each writing its own rows of the
// output lanes. The output items and the outer ORDER BY keys that are
// not output columns are compiled over the input row plus a slot vector
// per run: the window values, then the output items, which ORDER BY
// keys may name by alias. The gather and the fold run in one
// ForEachBatchCtx callback, under one read latch on the input.

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
// rows WHERE keeps with their window key lanes, sorts them into window
// order and folds each partition.
type windowPlan struct {
	src *planSource
	st  *Select

	// The gather pipeline: WHERE plus one projItem per PARTITION BY and
	// then per OVER-ORDER BY expression; the first nPart keys partition.
	// native reports whether any of them took its batch kernel
	// (EXPLAIN's lane line reads "row" otherwise).
	prog     *batchProg
	pred     bBatchKernel // nil when the query has no WHERE
	keyItems []*projItem
	nPart    int
	native   bool
	// window orders the key lanes: the partition keys in ASC order, then
	// the order keys in their directions.
	window sortSpec

	specs []windowSlotSpec

	outNames []string
	outKinds []ckind // static output kinds, for RowDescription
	items    []anyFn
	keys     []anyFn  // the outer ORDER BY keys that are not output columns
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
	keys := make([]OrderKey, 0, len(over.PartitionBy)+len(over.OrderBy))
	for _, pe := range over.PartitionBy {
		keys = append(keys, OrderKey{Expr: pe})
	}
	p.nPart, p.window.limit = len(keys), -1
	for _, k := range append(keys, over.OrderBy...) {
		pi, err := lw.item(k.Expr)
		if err != nil {
			return nil, err
		}
		p.keyItems = append(p.keyItems, pi)
		p.window.desc = append(p.window.desc, k.Desc)
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
	if p.keys, err = p.order.compileKeys(st.OrderBy, p.outNames, st.Items, outputCompileCtx(&icc, p.outNames, len(p.specs))); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *windowPlan) valid(db *engine.DB) bool { return p.src.valid(db) }

func (p *windowPlan) columns() []string { return p.outNames }

func (p *windowPlan) kinds() []ckind { return p.outKinds }

// windowMorsel is one morsel's gathered rows: their window key lanes
// and, beside them, their handles for the fold.
type windowMorsel struct {
	keys Chunk
	rows []engine.Row
}

// gatherKeys appends one batch's surviving rows to the morsel: each key
// item evaluates once over the selection into its lane.
func (p *windowPlan) gatherKeys(e *batchEval, b engine.ColBatch, sel selVec, m *windowMorsel) error {
	if m.keys.cols == nil {
		m.keys.cols = make([]chunkCol, len(p.keyItems))
	}
	left := batchesLeft(b)
	for i, pi := range p.keyItems {
		if err := pi.appendTo(e, b, sel, &m.keys.cols[i], left); err != nil {
			return err
		}
	}
	m.keys.n += len(sel)
	m.rows = reserve(m.rows, len(sel), left)
	for _, idx := range sel {
		m.rows = append(m.rows, b.Row(int(idx)))
	}
	return nil
}

func (p *windowPlan) exec(s *Session, env *execEnv) (*RowSet, error) {
	input, err := p.src.acquire(s, env.context())
	if err != nil {
		return nil, err
	}
	// The fold runs inside the scan's callback, under the read latch of
	// the gather, so the row handles stay valid until the last step.
	var out Chunk
	err = s.db.ForEachBatchCtx(env.context(), input, func(morsels int, scan func(func(int, engine.ColBatch) error) error) error {
		ms, err := gatherBatches(env, morsels, scan, p.prog, p.pred, p.gatherKeys)
		if err == nil {
			out, err = p.fold(s.db, env, ms)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rs := newRowSet(p.outNames, p.outKinds, out)
	return rs, p.order.finish(s.db, rs, false)
}

// fold sorts the gathered rows into window order and folds them into
// their output rows, which it returns in that order as one chunk of
// boxed lanes, the outputs and then the ORDER BY key lanes: partitions
// in key order, rows in window order, ties in table order — the
// default output order. The partitions fold in parallel as contiguous
// runs of the order; each run stops at its first error and the lowest
// run's error wins, so the error is the earliest failing row's, as a
// sequential fold would report it. Each run writes its own rows of the
// preallocated lanes.
func (p *windowPlan) fold(db *engine.DB, env *execEnv, ms []windowMorsel) (Chunk, error) {
	var chunks []Chunk
	var handles []engine.Row
	for i := range ms {
		if ms[i].keys.n > 0 {
			chunks = append(chunks, ms[i].keys)
			handles = append(handles, ms[i].rows...)
		}
	}
	if len(handles) == 0 {
		return Chunk{}, nil
	}
	keys := concatChunks(chunks)
	perm, err := p.window.perm(db, &keys)
	if err != nil {
		return Chunk{}, err
	}
	// A partition starts where the partition lanes of neighbours
	// differ; neighbours whose order lanes compare equal are rank()
	// peers. The sort has compared every pair of neighbours, so neither
	// comparator can fail here.
	ord := p.window.rowOrder(&keys)
	part, peers := &rowOrder{keys: ord.keys[:p.nPart]}, &rowOrder{keys: ord.keys[p.nPart:]}
	n := len(perm)
	starts := []int{0}
	for k := 1; k < n; k++ {
		if part.compare(perm[k-1], perm[k]) != 0 {
			starts = append(starts, k)
		}
	}
	starts = append(starts, n)

	// Runs of whole partitions, about n/workers rows each.
	workers := 1
	if n >= engine.ParallelRowThreshold {
		workers = runtime.GOMAXPROCS(0)
	}
	cuts := []int{0}
	for w := 1; w < workers; w++ {
		if c, _ := slices.BinarySearch(starts, w*n/workers); c > cuts[len(cuts)-1] && c < len(starts)-1 {
			cuts = append(cuts, c)
		}
	}
	cuts = append(cuts, len(starts)-1)

	out := boxedChunk(len(p.items)+len(p.keys), n)
	foldRun := func(bounds []int) error {
		ws := windowState{accs: make([]numAccState, len(p.specs)), env: env.withSlots(len(p.specs) + len(p.items))}
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			for i := range ws.accs {
				ws.accs[i] = numAccState{intOnly: true}
			}
			for k := lo; k < hi; k++ {
				ws.pos = int64(k - lo + 1)
				if k == lo || peers.compare(perm[k-1], perm[k]) != 0 {
					ws.rank = ws.pos
				}
				if err := p.step(&ws, handles[perm[k]], &out, k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	errs := make([]error, len(cuts)-1)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = foldRun(starts[cuts[r] : cuts[r+1]+1])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Chunk{}, err
		}
	}
	return out, nil
}

// windowState is the fold state of one partition, at its current row.
// env carries the run's slot vector (windowPlan's layout) beside the
// execution's parameters.
type windowState struct {
	pos  int64
	rank int64         // peers (equal order keys) share the rank of their first row
	accs []numAccState // running sum/avg/count accumulators per slot
	env  *execEnv
}

// step folds one row into the partition's state and writes its output
// row, with the row's window values bound, into row k of out.
func (p *windowPlan) step(ws *windowState, row engine.Row, out *Chunk, k int) error {
	slots := ws.env.slots
	for i, sp := range p.specs {
		acc := &ws.accs[i]
		switch sp.name {
		case "row_number":
			slots[i] = ws.pos
		case "rank":
			slots[i] = ws.rank
		case "count":
			v := any(true) // count(*) counts every row
			if sp.arg != nil {
				var err error
				if v, err = sp.arg(row, ws.env); err != nil {
					return err
				}
			}
			if v != nil {
				acc.n++
			}
			slots[i] = acc.n
		case "sum", "avg":
			v, err := sp.arg(row, ws.env)
			if err != nil {
				return err
			}
			if err := numAccAdd(acc, sp.name, v); err != nil {
				return err
			}
			slots[i], _ = numAccFinal(sp.name)(*acc) // cannot fail
		}
	}
	return outputRow(p.items, p.keys, row, ws.env, len(p.specs), out, k)
}
