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
// The input side runs on the batch executor: the gather pass is
// morsel-parallel, WHERE filters each batch into a selection vector and
// the PARTITION BY / OVER-ORDER BY keys evaluate column-wise into the
// morsel's typed key chunk, each key through its native batch kernel
// or, where it has none (Vector operands, madlib calls, parameters),
// through its row closure driven over the selection into a boxed lane.
// Beside the keys the gather fills one lane per bare column that a
// SELECT item or a window argument names, and, when some output is a
// closure over the row, the rows' handles. One sort orders the
// concatenated chunk with ORDER BY's comparator (sortSpec.perm):
// partition keys in ASC order, then the order keys, then table
// position. That permutation is the fold order and the default output
// order at once. Neighbours whose partition lanes compare unequal start
// a partition and neighbours whose order lanes compare equal are rank()
// peers; the partitions fold as contiguous runs of the permutation on
// at most GOMAXPROCS goroutines, each writing its own rows of the
// output lanes.
//
// The fold is row-at-a-time by definition — each row's output depends
// on the partition state — but its outputs are typed lanes in window
// order: row_number, rank and count write Int lanes, and sum/avg of a
// bare column fold its gathered lane with the accumulator's typed adds
// into an Int or Float lane. A bare column item is its lane gathered
// through the permutation and a bare window call item is that call's
// lane, so the outer ORDER BY … LIMIT compares typed keys and gathers
// its kept rows only (sortSpec.finish). What can fail still runs per
// row in window order, as closures over the row plus a slot vector per
// run — an argument that is not a bare column, the items that are other
// expressions and the outer ORDER BY keys that are not output columns —
// and only those closures see boxed values: the window values, then the
// output items, which ORDER BY keys may name by alias. The gather and
// the fold run in one ForEachBatchCtx callback, under one read latch on
// the input.

// windowFuncs names the supported window functions.
var windowFuncs = map[string]bool{
	"row_number": true, "rank": true, "count": true, "sum": true, "avg": true,
}

// windowSlotSpec is one window call lowered against the input schema.
type windowSlotSpec struct {
	name string
	// lane is the gathered lane of a bare column argument, whose values
	// fold typed; -1 otherwise.
	lane int
	// arg is the compiled argument of sum/avg/count(x) when it is not a
	// gathered lane; nil for row_number, rank and count(*).
	arg anyFn
	// out is the kind of the call's output lane: Int for row_number,
	// rank, count and sum of an Int lane, Float for avg and sum of a
	// Float lane, boxed for sum/avg of a closure argument. nullable
	// marks a typed sum/avg whose argument may be NULL, which is NULL
	// until the first non-NULL argument.
	out      ckind
	nullable bool
}

// windowItem is one SELECT item of a window query: the value of window
// call slot, the gathered lane of a bare column, or else fn, a closure
// over the row and the slots.
type windowItem struct {
	slot, lane int
	fn         anyFn
}

// windowPlan executes a SELECT whose item list contains window calls.
// All calls must share one window specification. The plan gathers the
// rows WHERE keeps with their window key lanes, sorts them into window
// order and folds each partition.
type windowPlan struct {
	src *planSource
	st  *Select

	// The gather pipeline: WHERE plus one projItem per PARTITION BY and
	// then per OVER-ORDER BY expression, the first nPart of which
	// partition, then one per gathered bare column (laneOf indexes
	// them by name). native reports whether any key or WHERE took its
	// batch kernel (EXPLAIN's lane line reads "row" otherwise). rows
	// reports whether some closure reads the rows' handles.
	prog     *batchProg
	pred     bBatchKernel // nil when the query has no WHERE
	keyItems []*projItem
	laneOf   map[string]int
	nPart    int
	native   bool
	rows     bool
	// window orders the key lanes: the partition keys in ASC order, then
	// the order keys in their directions.
	window sortSpec

	specs []windowSlotSpec

	outNames []string
	outKinds []ckind // static output kinds, for RowDescription
	items    []windowItem
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
	var args []Expr // each call's argument, nil for none
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
			spec := windowSlotSpec{name: call.Name, lane: -1, out: ckInt}
			var arg Expr
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
				num := call.Name == "sum" || call.Name == "avg"
				if num && c.kind != ckAny && !c.isNumeric() {
					return nil, execErrf("%s: argument is %s, not numeric", call.Name, c.kind)
				}
				spec.arg = c.a
				if num {
					spec.out = ckAny
				}
				arg = call.Args[0]
			}
			slotOf[call] = len(p.specs)
			p.specs, args = append(p.specs, spec), append(args, arg)
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
	p.laneOf = map[string]int{}
	for _, k := range append(keys, over.OrderBy...) {
		pi, err := lw.item(k.Expr)
		if err != nil {
			return nil, err
		}
		if _, ok := k.Expr.(*ColumnRef); ok && pi.rowFn == nil {
			p.laneOf[k.Expr.String()] = len(p.keyItems)
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

	// A bare column argument folds from its gathered lane.
	for i := range p.specs {
		sp := &p.specs[i]
		lane, err := p.gatherLane(args[i], lw)
		if err != nil {
			return nil, err
		}
		if lane < 0 {
			continue
		}
		pi := p.keyItems[lane]
		switch {
		case sp.name == "count":
		case pi.evalI != nil:
			sp.out = ckInt
		case pi.evalF != nil:
			sp.out = ckFloat
		default:
			continue
		}
		if sp.name == "avg" {
			sp.out = ckFloat
		}
		sp.lane, sp.arg, sp.nullable = lane, nil, sp.name != "count" && pi.validE != nil
	}

	p.outNames = make([]string, len(st.Items))
	p.outKinds = itemKinds(st.Items, p.src.schema)
	for i, item := range st.Items {
		p.outNames[i] = outputName(item)
	}
	icc := *cc
	icc.slotCalls = slotOf
	p.items = make([]windowItem, len(st.Items))
	for i, item := range st.Items {
		c, err := compileExpr(item.Expr, &icc)
		if err != nil {
			return nil, err
		}
		p.items[i] = windowItem{slot: -1, lane: -1}
		if call, ok := item.Expr.(*FuncCall); ok && call.Over != nil {
			p.items[i].slot = slotOf[call]
		} else if p.items[i].lane, err = p.gatherLane(item.Expr, lw); err != nil {
			return nil, err
		} else if p.items[i].lane < 0 {
			p.items[i].fn, p.rows = c.a, true
		}
	}
	if p.keys, err = p.order.compileKeys(st.OrderBy, p.outNames, st.Items, outputCompileCtx(&icc, p.outNames, len(p.specs))); err != nil {
		return nil, err
	}
	for _, sp := range p.specs {
		p.rows = p.rows || sp.arg != nil
	}
	p.rows = p.rows || len(p.keys) > 0
	return p, nil
}

// gatherLane returns the gathered lane of e when e is a bare column
// with a typed lane, adding it to the gather when it is not there yet,
// and -1 otherwise.
func (p *windowPlan) gatherLane(e Expr, lw *lowering) (int, error) {
	if _, ok := e.(*ColumnRef); !ok {
		return -1, nil
	}
	if i, ok := p.laneOf[e.String()]; ok {
		return i, nil
	}
	pi, err := lw.item(e)
	if err != nil || pi.rowFn != nil {
		return -1, err
	}
	p.laneOf[e.String()] = len(p.keyItems)
	p.keyItems = append(p.keyItems, pi)
	return len(p.keyItems) - 1, nil
}

func (p *windowPlan) valid(db *engine.DB) bool { return p.src.valid(db) }

func (p *windowPlan) columns() []string { return p.outNames }

func (p *windowPlan) kinds() []ckind { return p.outKinds }

// windowMorsel is one morsel's gathered rows: their window key lanes and
// gathered column lanes and, when closures read them, their handles.
type windowMorsel struct {
	keys Chunk
	rows []engine.Row
}

// gatherKeys appends one batch's surviving rows to the morsel: each key
// and gathered column evaluates once over the selection into its lane.
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
	if p.rows {
		m.rows = reserve(m.rows, len(sel), left)
		for _, idx := range sel {
			m.rows = append(m.rows, b.Row(int(idx)))
		}
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
// their output rows, which it returns in that order as one chunk, the
// outputs and then the ORDER BY key lanes: partitions in key order,
// rows in window order, ties in table order — the default output
// order. The partitions fold in parallel as contiguous runs of the
// order; each run stops at its first error and the lowest run's error
// wins, so the error is the earliest failing row's, as a sequential
// fold would report it. Each run writes its own rows of the
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
	if len(chunks) == 0 {
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

	// The output lanes, in window order: each call's lane, then the
	// items — a call's lane, a gathered column through the permutation
	// or a boxed lane the fold fills — then the ORDER BY key lanes.
	vals := make([]chunkCol, len(p.specs))
	for i, sp := range p.specs {
		vals[i] = newLane(sp.out, n, sp.nullable)
	}
	out := Chunk{n: n, cols: make([]chunkCol, len(p.items), len(p.items)+len(p.keys))}
	for i, it := range p.items {
		switch {
		case it.slot >= 0:
			out.cols[i] = vals[it.slot]
		case it.lane >= 0:
			out.cols[i].appendFrom(&keys.cols[it.lane], perm)
		default:
			out.cols[i] = newLane(ckAny, n, false)
		}
	}
	for range p.keys {
		out.cols = append(out.cols, newLane(ckAny, n, false))
	}
	foldRun := func(bounds []int) error {
		ws := windowState{accs: make([]numAccState, len(p.specs)), vals: vals, src: &keys}
		if p.rows {
			ws.env = env.withSlots(len(p.specs) + len(p.items))
		}
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
				var row engine.Row
				if p.rows {
					row = handles[perm[k]]
				}
				if err := p.step(&ws, perm[k], row, &out, k); err != nil {
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

// windowState is the fold state of one partition, at its current row:
// the running accumulators, the output lanes of the calls (vals) and
// the gathered lanes (src). env, when closures run, carries the run's
// slot vector (windowPlan's layout) beside the execution's parameters.
type windowState struct {
	pos  int64
	rank int64         // peers (equal order keys) share the rank of their first row
	accs []numAccState // running sum/avg/count accumulators per slot
	vals []chunkCol
	src  *Chunk
	env  *execEnv
}

// step folds gathered row j, whose handle is row, into the partition's
// state and writes its window values into row k of the calls' lanes;
// when closures run, it binds the row's window values and items to the
// slots and writes the closures' values into row k of out.
func (p *windowPlan) step(ws *windowState, j int, row engine.Row, out *Chunk, k int) error {
	for i, sp := range p.specs {
		acc, v := &ws.accs[i], &ws.vals[i]
		var a *chunkCol
		if sp.lane >= 0 {
			a = &ws.src.cols[sp.lane]
		}
		switch sp.name {
		case "row_number":
			v.ints[k] = ws.pos
		case "rank":
			v.ints[k] = ws.rank
		case "count":
			switch {
			case a != nil:
				if a.valid == nil || a.valid[j] {
					acc.n++
				}
			case sp.arg != nil:
				x, err := sp.arg(row, ws.env)
				if err != nil {
					return err
				}
				if x != nil {
					acc.n++
				}
			default: // count(*) counts every row
				acc.n++
			}
			v.ints[k] = acc.n
		case "sum", "avg":
			switch {
			case a == nil:
				x, err := sp.arg(row, ws.env)
				if err != nil {
					return err
				}
				if err := numAccAdd(acc, sp.name, x); err != nil {
					return err
				}
			case a.valid != nil && !a.valid[j]:
			case a.kind == ckInt:
				acc.addInt(a.ints[j])
			default:
				acc.addFloat(a.floats[j])
			}
			setRunning(v, k, sp.name, acc)
		}
	}
	if !p.rows {
		return nil
	}
	slots := ws.env.slots
	for i := range p.specs {
		slots[i] = ws.vals[i].value(k)
	}
	from := len(p.specs)
	for i, it := range p.items {
		if it.fn == nil {
			slots[from+i] = out.value(k, i)
			continue
		}
		x, err := it.fn(row, ws.env)
		if err != nil {
			return err
		}
		out.cols[i].boxed[k], slots[from+i] = x, x
	}
	for i, fn := range p.keys {
		x, err := fn(row, ws.env)
		if err != nil {
			return err
		}
		out.cols[len(p.items)+i].boxed[k] = x
	}
	return nil
}

// setRunning writes the running value of sum or avg, acc's, into row k
// of l: NULL before the first non-NULL argument, as numAccFinal has it.
func setRunning(l *chunkCol, k int, name string, acc *numAccState) {
	if l.kind == ckAny {
		l.boxed[k], _ = numAccFinal(name)(*acc) // cannot fail
		return
	}
	if acc.n == 0 {
		// NULL: only a nullable argument's lane has rows before the
		// first value, and its validity lane starts false.
		return
	}
	if l.valid != nil {
		l.valid[k] = true
	}
	switch {
	case name == "avg":
		l.floats[k] = acc.sum / float64(acc.n)
	case l.kind == ckInt:
		l.ints[k] = acc.sumInt
	default:
		l.floats[k] = acc.sum
	}
}
