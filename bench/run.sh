#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds bench/ from source into
# .bench_build/ at the root of the checkout, keeping Go's caches there
# too so that nothing is written outside the checkout, and runs the
# binary from the root with the arguments it was given.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" \
  XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go -C bench build -o ../.bench_build/madbench .
exec .bench_build/madbench "$@"
