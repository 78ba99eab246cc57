#!/usr/bin/env bash
# loc.sh — non-test Go code lines per package: lines that are neither
# blank nor a `//` comment alone, in every .go file of a package
# directory except *_test.go. This is how ROADMAP counts the size of
# internal/sql and internal/engine.
#
# Usage: scripts/loc.sh [dir ...]   (default: every package under internal/)
# Prints one "<lines> <dir>" row per package, then the total.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
	set -- internal/*/
fi

total=0
for dir in "$@"; do
	dir=${dir%/}
	files=()
	for f in "$dir"/*.go; do
		[ -e "$f" ] || continue
		case "$f" in *_test.go) continue ;; esac
		files+=("$f")
	done
	[ ${#files[@]} -gt 0 ] || continue
	n=$(cat "${files[@]}" | grep -cvE '^[[:space:]]*(//.*)?$' || true)
	printf '%6d %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%6d total\n' "$total"
