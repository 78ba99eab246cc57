#!/usr/bin/env bash
# selfcheck.sh — the A/A gate: does the benchmark agree with itself?
#
# Builds once, then runs two full untraced sets of the same commit with
# the same seed, the second set in reverse workload order, and prints for
# every workload and end-to-end metric both values, their ratio and the
# bound from BENCHMARK.json. Exits non-zero when two values of a metric
# differ by more than its bound, or when any statement failed.
#
# Usage: bench/selfcheck.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]], sep="\n")')
out=bench/out/selfcheck
mkdir -p "$out"

for set in 1 2; do
  order=("${workloads[@]}")
  if [ "$set" = 2 ]; then
    mapfile -t order < <(printf '%s\n' "${workloads[@]}" | tac)
  fi
  for w in "${order[@]}"; do
    echo "set $set: $w" >&2
    bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -1 > "$out/$w.$set.json"
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, sys
out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0
print(f'{"workload":<14} {"metric":<16} {"set 1":>14} {"set 2":>14} {"ratio":>7} {"bound":>6}')
for w in workloads:
    a, b = (json.load(open(f"{out}/{w}.{s}.json")) for s in (1, 2))
    for r in (a, b):
        if not r["correct"] or r["failed"]:
            print(f'{w}: {r["failed"]} of {r["attempted"]} statements failed')
            bad += 1
    for name, bound in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = y / x
        flag = ""
        if max(ratio, 1 / ratio) > 1 + bound:
            flag, bad = "  DISAGREE", bad + 1
        print(f"{w:<14} {name:<16} {x:>14.4f} {y:>14.4f} {ratio:>7.3f} {bound:>6.2f}{flag}")
sys.exit(1 if bad else 0)
EOF
