package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"madlib"
	"madlib/internal/core"
	"madlib/internal/model"
)

// runSQL implements `madlib sql`: an interactive REPL over the SQL
// front-end, plus non-interactive -e "stmts" and -f script.sql modes.
// It returns the process exit code so tests can drive it directly.
func runSQL(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := fs.String("e", "", "execute the given statements and exit")
	script := fs.String("f", "", "execute statements from a .sql file and exit")
	in := fs.String("in", "", "preload a CSV file (header row required) as a table")
	table := fs.String("table", "data", "table name for -in")
	segments := fs.Int("segments", 4, "engine segments")
	slowMS := fs.Int64("slow-query-ms", -1, "log statements slower than this many milliseconds to stderr (0 logs every statement; negative disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Distinguish `-e ""` from an absent -e: an explicit empty batch is a
	// no-op, not a request for the interactive shell.
	eSet, fSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "e":
			eSet = true
		case "f":
			fSet = true
		}
	})
	db := madlib.Open(madlib.Config{Segments: *segments})
	if *slowMS >= 0 {
		logger := slog.New(slog.NewTextHandler(stderr, nil))
		db.SetQueryLog(logger, time.Duration(*slowMS)*time.Millisecond)
	}
	if *in != "" {
		header, records, err := readCSV(*in)
		if err != nil {
			fmt.Fprintf(stderr, "madlib sql: %v\n", err)
			return 1
		}
		if err := loadGenericNamed(db, *table, header, records); err != nil {
			fmt.Fprintf(stderr, "madlib sql: %v\n", err)
			return 1
		}
	}
	r := &repl{db: db, out: stdout, errOut: stderr}
	switch {
	case eSet && fSet:
		fmt.Fprintln(stderr, "madlib sql: -e and -f are mutually exclusive")
		return 2
	case eSet:
		if !r.execute(*exec) {
			return 1
		}
		return 0
	case fSet:
		text, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintf(stderr, "madlib sql: %v\n", err)
			return 1
		}
		if !r.execute(string(text)) {
			return 1
		}
		return 0
	}
	return r.interactive(stdin)
}

// repl holds the session state of one `madlib sql` run.
type repl struct {
	db     *madlib.DB
	out    io.Writer
	errOut io.Writer
	timing bool
}

// execute runs a batch of statements, printing each result; it reports
// whether every statement succeeded.
func (r *repl) execute(text string) bool {
	start := time.Now()
	results, err := r.db.Exec(text)
	for _, res := range results {
		fmt.Fprint(r.out, res.Format())
	}
	if err != nil {
		fmt.Fprintf(r.errOut, "ERROR: %v\n", err)
		return false
	}
	if r.timing {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		tm := r.db.SQLSession().LastTiming()
		detail := fmt.Sprintf("parse %.3f, plan %.3f, exec %.3f", ms(tm.Parse), ms(tm.Plan), ms(tm.Exec))
		if tm.CacheHit {
			detail += ", cached plan"
		}
		fmt.Fprintf(r.out, "Time: %.3f ms (%s)\n", float64(time.Since(start).Microseconds())/1000, detail)
	}
	return true
}

// interactive reads statements from stdin, psql-style: multi-line input
// until a ';', backslash meta-commands, errors reported without exiting.
// It returns the process exit code (nonzero when stdin breaks mid-read).
func (r *repl) interactive(stdin io.Reader) int {
	fmt.Fprintln(r.out, "madlib SQL shell — \\? for help, \\q to quit")
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var buf strings.Builder
	prompt := "madlib=# "
	for {
		fmt.Fprint(r.out, prompt)
		if !scanner.Scan() {
			fmt.Fprintln(r.out)
			// A scanner error (an over-long line, a broken pipe) is not a
			// clean EOF: the rest of the input was dropped.
			if err := scanner.Err(); err != nil {
				fmt.Fprintf(r.errOut, "madlib sql: reading input: %v\n", err)
				return 1
			}
			return 0
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !r.metaCommand(trimmed) {
				return 0
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		complete, rest := splitComplete(buf.String())
		if complete != "" {
			r.execute(complete)
			buf.Reset()
			buf.WriteString(rest)
		}
		if strings.TrimSpace(buf.String()) == "" {
			buf.Reset()
			prompt = "madlib=# "
		} else {
			prompt = "madlib-# "
		}
	}
}

// metaCommand handles backslash commands; it returns false to quit.
func (r *repl) metaCommand(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\d":
		if len(fields) > 1 {
			r.describeTable(fields[1])
		} else {
			r.listTables(false)
		}
	case "\\d+":
		if len(fields) > 1 {
			r.describeTable(fields[1])
		} else {
			r.listTables(true)
		}
	case "\\df":
		r.listFunctions()
	case "\\dm":
		r.listModels()
	case "\\stats":
		r.showStats()
	case "\\prepare":
		r.listPrepared()
	case "\\timing":
		r.timing = !r.timing
		state := "off"
		if r.timing {
			state = "on"
		}
		fmt.Fprintf(r.out, "Timing is %s.\n", state)
	case "\\?":
		fmt.Fprint(r.out, `General
  \q              quit
  \d              list tables
  \d+             list all tables, including hidden engine temporaries
                  (row counts and data versions)
  \d NAME         describe a table
  \df             list madlib.* SQL functions
  \dm             list models persisted in madlib_models
                  (train with a leading name: madlib.linregr('m', y, x))
  \prepare        list prepared statements
  \stats          show engine and session metric counters
                  (also queryable: SELECT * FROM madlib_stats_counters)
  \timing         toggle per-statement timing (parse/plan/exec split)
  \?              this help

Statements end with ';' and may span lines. The dialect covers
CREATE TABLE [AS SELECT], DROP, INSERT, SELECT [DISTINCT] with
JOIN/LEFT JOIN ... ON, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT,
window functions (row_number/rank/count/sum/avg OVER (PARTITION BY
... ORDER BY ...)), PREPARE/EXECUTE/DEALLOCATE, EXPLAIN [ANALYZE],
and madlib.* calls (\df lists them). System views: madlib_stats_counters,
madlib_stats_queries, madlib_stats_tables.
`)
	default:
		fmt.Fprintf(r.errOut, "invalid command %s — try \\?\n", fields[0])
	}
	return true
}

// listTables prints the catalog. Plain \d hides engine-managed
// temporaries (driver-function state) the way
// psql hides other sessions' temp schemas; \d+ (all=true) shows them
// alongside row counts and data versions.
func (r *repl) listTables(all bool) {
	names := r.db.Engine().TableNames()
	cols := []string{"name", "rows"}
	if all {
		cols = []string{"name", "rows", "version", "temp"}
	}
	res := &madlib.SQLResult{Cols: cols}
	for _, n := range names {
		t, err := r.db.Table(n)
		if err != nil {
			continue
		}
		if all {
			res.Rows = append(res.Rows, []any{n, t.Count(), t.Version(), t.Temp()})
			continue
		}
		if t.Temp() {
			continue
		}
		res.Rows = append(res.Rows, []any{n, t.Count()})
	}
	fmt.Fprint(r.out, res.Format())
}

// showStats prints the metrics registry through the same SQL path users
// can query directly.
func (r *repl) showStats() {
	res, err := r.db.Query("SELECT name, value FROM madlib_stats_counters")
	if err != nil {
		fmt.Fprintf(r.errOut, "ERROR: %v\n", err)
		return
	}
	fmt.Fprint(r.out, res.Format())
}

func (r *repl) describeTable(name string) {
	t, err := r.db.Table(strings.ToLower(name))
	if err != nil {
		fmt.Fprintf(r.errOut, "ERROR: %v\n", err)
		return
	}
	res := &madlib.SQLResult{Cols: []string{"column", "type"}}
	for _, c := range t.Schema() {
		res.Rows = append(res.Rows, []any{c.Name, c.Kind.String()})
	}
	fmt.Fprint(r.out, res.Format())
}

func (r *repl) listPrepared() {
	res := &madlib.SQLResult{Cols: []string{"name", "parameters", "statement"}}
	for _, p := range r.db.SQLSession().PreparedStatements() {
		res.Rows = append(res.Rows, []any{p.Name, int64(p.NumParams), p.Text})
	}
	fmt.Fprint(r.out, res.Format())
}

func (r *repl) listFunctions() {
	res := &madlib.SQLResult{Cols: []string{"function", "kind", "description"}}
	for _, f := range core.SQLFuncs() {
		kind := "aggregate"
		switch f.Kind {
		case core.SQLTableValued:
			kind = "table-valued"
		case core.SQLScalar:
			kind = "scalar"
		}
		res.Rows = append(res.Rows, []any{"madlib." + f.Signature, kind, f.Help})
	}
	fmt.Fprint(r.out, res.Format())
}

// listModels prints the madlib_models catalog the way \d prints tables.
func (r *repl) listModels() {
	models, err := model.List(r.db.Engine())
	if err != nil {
		fmt.Fprintf(r.errOut, "ERROR: %v\n", err)
		return
	}
	res := &madlib.SQLResult{Cols: []string{"name", "kind", "features", "rows", "version", "trained_at"}}
	for _, m := range models {
		res.Rows = append(res.Rows, []any{m.Name, m.Kind, len(m.Coef), m.NumRows, m.Version, m.TrainedAt})
	}
	fmt.Fprint(r.out, res.Format())
}

// splitComplete splits buffered input at the last statement-terminating
// ';' that is outside string literals and comments. complete is "" until
// at least one full statement is buffered.
func splitComplete(buf string) (complete, rest string) {
	last := -1
	inString := false
	for i := 0; i < len(buf); i++ {
		c := buf[i]
		switch {
		case inString:
			if c == '\'' {
				// '' escapes a quote inside the literal.
				if i+1 < len(buf) && buf[i+1] == '\'' {
					i++
				} else {
					inString = false
				}
			}
		case c == '\'':
			inString = true
		case c == '-' && i+1 < len(buf) && buf[i+1] == '-':
			for i < len(buf) && buf[i] != '\n' {
				i++
			}
		case c == ';':
			last = i
		}
	}
	if last < 0 {
		return "", buf
	}
	return buf[:last+1], buf[last+1:]
}
