package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"madlib/internal/engine"
	"madlib/internal/pgwire"
)

// class is the statement class a latency sample is reported under.
type class int

const (
	classRead  class = iota // SELECT with a small result
	classWrite              // INSERT, or CREATE TABLE AS plus DROP
	classBulk               // SELECT returning thousands of rows
	classTrain              // a madlib.* trainer
	classScore              // madlib.predict over a table
	nClasses
)

var classNames = [nClasses]string{"read", "write", "bulk", "train", "score"}

// stmt is one statement as it is sent, with the answer it must produce.
type stmt struct {
	class class
	// text is the SQL. The simple protocol sends it as is; the ladder
	// lexes, parses and plans it in-process.
	text string
	// prep names a statement prepared at set-up. When set, only params
	// cross the wire (extended protocol, binary format) and args are the
	// same values for the in-process Session call.
	prep   string
	params []pgwire.WireParam
	args   []any
	want   check
	// untimed marks a verification read issued between the timed
	// statements of an operation; it gives no latency sample.
	untimed bool
	// trainRows is the number of table rows a trainer statement folds.
	trainRows int64
}

// kind is one statement shape of a workload's mix.
type kind struct {
	name     string
	head     bool   // belongs to the workload's headline population
	perRound int    // operations of this kind in one round, over all connections
	nArgs    int64  // the seeded argument is drawn from [0, nArgs)
	prepare  string // SQL prepared under the kind's name at set-up; "" = simple protocol
	oids     []int32
	// stmts renders one operation: usually one statement, for CREATE
	// TABLE AS the create, an untimed check and the drop.
	stmts func(arg int64, conn int) []stmt
	// direct is the equivalent engine or trainer call, the ladder's
	// bottom rung; nil where the statement has no single equivalent.
	direct func(db *engine.DB, arg int64) error
}

// workload is one traffic mix over its own tables.
type workload struct {
	name  string
	conns int
	kinds []kind
	// load creates and fills the tables through the engine API.
	load func(db *engine.DB) error
	// init runs once over the wire after load: it trains and persists
	// the models the mix scores with.
	init []string
	// endRound runs untimed after every round: post-run checks of what
	// the writes left behind, then restoring the tables so that every
	// round starts from the same state.
	endRound func(e *env, r *roundResult) error
	// db is the live set-up's database, for checks that read the model
	// catalog.
	db *engine.DB
}

type op struct {
	kind int
	arg  int64
}

// cycledArgs is the largest argument space that is walked in order
// rather than drawn from: with a handful of literals of unequal cost,
// walking them gives every round the same work, so a slow round means a
// disturbed machine and not an unlucky draw.
const cycledArgs = 64

// schedule deals one round's operations to the connections. It is a pure
// function of (seed, round): every round has the same number of
// operations of each kind, in an order and with arguments of its own.
// Round -1 is the warm-up.
func (w *workload) schedule(seed int64, round int) [][]op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round) + 1))
	var ops []op
	for ki, k := range w.kinds {
		first := rng.Int63n(k.nArgs)
		for i := 0; i < k.perRound; i++ {
			arg := (first + int64(i)) % k.nArgs
			if k.nArgs > cycledArgs {
				arg = rng.Int63n(k.nArgs)
			}
			ops = append(ops, op{kind: ki, arg: arg})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	per := make([][]op, w.conns)
	for i, o := range ops {
		per[i%w.conns] = append(per[i%w.conns], o)
	}
	return per
}

// rendered is one operation ready to send.
type rendered struct {
	op
	stmts []stmt
}

// render turns a round's operations into the statements to send, so that
// formatting SQL and looking up expectations stay off the clock.
func (w *workload) render(sched [][]op) [][]rendered {
	out := make([][]rendered, len(sched))
	for c, ops := range sched {
		out[c] = make([]rendered, len(ops))
		for i, o := range ops {
			out[c][i] = rendered{op: o, stmts: w.kinds[o.kind].stmts(o.arg, c)}
		}
	}
	return out
}

// scheduleSHA fingerprints the warm-up and the first timed round as sent:
// two runs with equal fingerprints did the same work per round.
func (w *workload) scheduleSHA(seed int64) string {
	h := sha256.New()
	for _, round := range []int{-1, 0} {
		for c, ops := range w.render(w.schedule(seed, round)) {
			for _, op := range ops {
				for _, s := range op.stmts {
					fmt.Fprintf(h, "%d|%s|%s|", c, s.prep, s.text)
					for _, p := range s.params {
						h.Write(p.Data)
					}
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// one wraps a single statement as an operation.
func one(s stmt) []stmt { return []stmt{s} }
