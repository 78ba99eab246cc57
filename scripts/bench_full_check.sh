#!/usr/bin/env bash
# bench_full_check.sh — a full-size correctness pass over the repo
# benchmark (BENCHMARK.json, bench/).
#
# The CI smoke run (bench/run.sh --smoke) plays every workload at 1/50
# size: its 4,000-row fact table is below engine.ParallelRowThreshold,
# so the worker pool and the many-morsel merges of the grouped, joined
# and sorted statements never run there. This script runs each workload
# at full size for one second of timed rounds, after the harness's
# untimed warm-up round, in which every statement's answer is checked.
# A wrong answer, a server error or a broken connection makes the
# harness exit non-zero; a timed statement that fails shows as
# "failed" in the summary line.
#
# It fails unless every run exits 0 and its last line reports
# "correct":true and "failed":0. Run it before handing in a change to an
# executor.
#
# Usage: scripts/bench_full_check.sh [seconds]   (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_RUN="${1:-1}"
fail=0
for w in serve_mix analytic_scan bulk_results train_refresh; do
  status=0
  out=$(bash bench/run.sh --workload "$w" --seconds "$SECONDS_PER_RUN" 2>&1) || status=$?
  last=$(printf '%s\n' "$out" | tail -n 1)
  if [ "$status" -ne 0 ]; then
    printf '%s\n' "$out" >&2
    echo "bench_full_check: FAIL — $w exited $status" >&2
    fail=1
    continue
  fi
  case "$last" in
    *'"correct":true'*'"failed":0,'*) echo "bench_full_check: $w ok: ${last:0:80}..." ;;
    *)
      printf '%s\n' "$out" >&2
      echo "bench_full_check: FAIL — $w did not report \"correct\":true and \"failed\":0" >&2
      fail=1
      ;;
  esac
done
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "bench_full_check: OK"
