// Command bench is the repository's benchmark: SQL statements sent over
// the PostgreSQL wire protocol to an in-process pgwire server, on four
// workloads, with every response verified. README.md in this directory
// describes the workloads, the metrics and how to read them.
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> [--trace 1] [--smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// builders lists the workloads in report order. Each builds its tables
// and expected answers from the seed; scale divides every size (1 for a
// real run, 50 for -smoke).
var builders = []struct {
	name  string
	build func(seed int64, scale int) *workload
}{
	{"serve_mix", serveMix},
	{"analytic_scan", analyticScan},
	{"bulk_results", bulkResults},
	{"train_refresh", trainRefresh},
}

// setups is how many times a run sets up: setup_s is their median, and
// the last one is measured.
const setups = 3

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when that is not meaningful
}

// result is the last line of output, the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: serve_mix, analytic_scan, bulk_results, train_refresh or all")
	seed := flag.Int64("seed", 1, "seed of the generated tables and the statement schedule")
	seconds := flag.Float64("seconds", 20, "how long the timed phase runs; whole rounds of the schedule are played until it has passed")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file per workload in bench/out")
	smoke := flag.Bool("smoke", false, "one set-up and one round at 1/50 size, to exercise the harness")
	outDir := flag.String("out", "bench/out", "directory the traced run writes its span files to")
	flag.Parse()

	ran := false
	for _, b := range builders {
		if *name != "all" && *name != b.name {
			continue
		}
		ran = true
		res, err := runWorkload(b.build, *seed, *seconds, *trace == 1, *smoke, *outDir)
		if err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
}

func runWorkload(build func(int64, int) *workload, seed int64, seconds float64, traced, smoke bool, outDir string) (*result, error) {
	scale, nSetups := 1, setups
	if smoke {
		scale, nSetups = 50, 1
	}
	w := build(seed, scale)
	fmt.Printf("workload=%s seed=%d schedule_sha=%s connections=%d gomaxprocs=%d num_cpu=%d go=%s commit=%s\n",
		w.name, seed, w.scheduleSHA(seed), w.conns, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())

	var setupS []float64
	var e *env
	for i := 0; i < nSetups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	var tr *tracer
	if traced {
		tr = &tracer{w: w, e: e, seed: seed, scale: scale, outDir: outDir}
	}
	// A traced run plays every round of the schedule twice, once recording
	// spans and once not, so that trace.overhead_pct compares equal work.
	perSchedule := 1
	if traced {
		perSchedule = 2
	}
	var rounds []*roundResult
	before := takeCounters(e.db)
	start := time.Now()
	for round := 0; round < perSchedule || (!smoke && time.Since(start).Seconds() < seconds); round++ {
		r, err := e.runRound(w, w.render(w.schedule(seed, round/perSchedule)), tr.spansFor(round))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	delta := takeCounters(e.db).minus(before)

	run := summarize(w, rounds)
	var metrics []metric
	if traced {
		var err error
		if metrics, err = tr.layerMetrics(run, delta); err != nil {
			return nil, err
		}
	} else {
		metrics = run.endToEnd(setupS)
	}
	run.print(metrics)

	out := &result{Correct: run.failed == 0, Attempted: run.attempted, Failed: run.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return out, nil
}

// commit is the VCS revision stamped into the binary, when there is one:
// the driver's checkout is not a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
