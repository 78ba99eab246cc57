#!/usr/bin/env bash
# bench_sql.sh — run the SQL front-end overhead benchmarks plus the
# training-harness, wire-server, model-serving (predict), bulk result
# path (PGWireBulkSelect, SQLBulkCTAS) and linregr (batch generation vs
# v0.3) benchmarks and record ns/op, B/op and allocs/op per variant to
# BENCH_sql.json, so the perf trajectory of the declarative surface
# (paper §4.4a), the igd training lanes, the predict scoring lanes, the
# result path and the paper's own linregr hot path is tracked across PRs
# in version control.
#
# Usage: scripts/bench_sql.sh [benchtime]
#   benchtime defaults to 1x (a smoke run); use e.g. 2s for stable numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1x}"
out=$(go test -run '^$' -bench BenchmarkSQLSelectAgg -benchmem -benchtime "$BENCHTIME" .)
echo "$out"
tout=$(go test -run '^$' -bench '^BenchmarkTrain' -benchmem -benchtime "$BENCHTIME" .)
echo "$tout"
wout=$(go test -run '^$' -bench '^BenchmarkPGWire' -benchmem -benchtime "$BENCHTIME" .)
echo "$wout"
pout=$(go test -run '^$' -bench '^BenchmarkSQL(Predict|Bulk)' -benchmem -benchtime "$BENCHTIME" .)
echo "$pout"
lout=$(go test -run '^$' -bench '^BenchmarkLinregrRun' -benchmem -benchtime "$BENCHTIME" .)
echo "$lout"

# Environment metadata, so committed numbers can be judged against the
# machine that produced them (ns/op from a 2-core runner is not
# comparable to a 32-core box).
go_version=$(go env GOVERSION)
num_cpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
gomaxprocs="${GOMAXPROCS:-$num_cpu}"

printf '%s\n%s\n%s\n%s\n%s\n' "$out" "$tout" "$wout" "$pout" "$lout" | awk -v benchtime="$BENCHTIME" \
  -v go_version="$go_version" -v num_cpu="$num_cpu" -v gomaxprocs="$gomaxprocs" '
  BEGIN {
    printf "{\n  \"benchmark\": \"BenchmarkSQLSelectAgg\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"env\": {\"go_version\": \"%s\", \"num_cpu\": %d, \"gomaxprocs\": %d},\n", go_version, num_cpu, gomaxprocs
    printf "  \"results\": {\n"
    n = 0
  }
  /^BenchmarkSQLSelectAgg\// || /^BenchmarkTrain/ || /^BenchmarkPGWire/ || /^BenchmarkSQL(Predict|Bulk)/ || /^BenchmarkLinregrRun/ {
    name = $1
    sub(/^BenchmarkSQLSelectAgg\//, "", name)
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = "null"; bytes = "null"; allocs = "null"
    for (i = 2; i < NF; i++) {
      if ($(i+1) == "ns/op") ns = $i
      if ($(i+1) == "B/op") bytes = $i
      if ($(i+1) == "allocs/op") allocs = $i
    }
    if (n++) printf ",\n"
    printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs
  }
  END { print "\n  }\n}" }
' > BENCH_sql.json

echo "wrote BENCH_sql.json"
