#!/usr/bin/env bash
# Builds the benchmark and runs it, keeping every file it writes (Go build
# cache, temporary files, the binary, inputs, store directories, trace.jsonl)
# inside <checkout>/.bench_build. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload read_cold --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/dkbenchmark" .)
exec "$out/dkbenchmark" -dir "$out/data" "$@"
