// Command madbench regenerates the paper's evaluation tables and figures
// (README.md, "Benchmark"): the Figure 4 timing table — the paper's three
// linregr generations plus this repo's batch one — the Figure 5 scaling series,
// the Table 1 method inventory, the Table 2 SGD-model suite, the Table 3
// text-analytics matrix, and the §4.4 overhead and speedup
// micro-experiments.
//
// Usage:
//
//	madbench -exp all
//	madbench -exp figure4 -rows 50000 -trials 5
//	madbench -exp figure4 -csv out.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"

	"madlib/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|figure4|figure5|table1|table2|table3|overhead|speedup")
	rows := flag.Int("rows", 0, "rows per dataset (0 = experiment default; paper used 10M)")
	trials := flag.Int("trials", 0, "timing trials per cell (0 = default)")
	csvPath := flag.String("csv", "", "also write figure4/figure5 rows as CSV to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this path (go tool trace; shows the morsel pool's worker scheduling)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			}
		}()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Print(experiments.Table1())
		return nil
	})

	run("figure4", func() error {
		cfg := experiments.Figure4Config{Rows: *rows, Trials: *trials}
		res, err := experiments.Figure4(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure4(res))
		if *csvPath != "" {
			return writeCSV(*csvPath, res)
		}
		return nil
	})

	run("figure5", func() error {
		cfg := experiments.Figure4Config{Rows: *rows, Trials: *trials}
		res, err := experiments.Figure5(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure5(res))
		if *csvPath != "" {
			return writeCSV(*csvPath, res)
		}
		return nil
	})

	run("overhead", func() error {
		res, err := experiments.Overhead(*rows)
		if err != nil {
			return err
		}
		fmt.Printf("Query overhead (§4.4a): empty query %v, bulk query (%d rows) %v — fixed overhead is %.2f%% of bulk\n",
			res.EmptyQuery, res.Rows, res.BulkQuery, res.OverheadFraction*100)
		return nil
	})

	run("speedup", func() error {
		res, err := experiments.Speedup(*rows, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSpeedup(res))
		return nil
	})

	run("table2", func() error {
		res, err := experiments.Table2(*rows)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable2(res))
		return nil
	})

	run("table3", func() error {
		res, err := experiments.Table3()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable3(res))
		return nil
	})
}

func writeCSV(path string, rows []experiments.Figure4Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"segments", "vars", "rows", "version", "sim_ns", "wall_ns"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.Segments), strconv.Itoa(r.Vars), strconv.Itoa(r.Rows),
			r.Version.String(),
			strconv.FormatInt(r.SimTime.Nanoseconds(), 10),
			strconv.FormatInt(r.WallTime.Nanoseconds(), 10),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
