#!/usr/bin/env bash
# Build the benchmark from source (release profile) and run it from the
# repository root, passing every argument to perf.exe:
#
#   bash bench/perf/run.sh --workload mc-suite --seed 42 --seconds 20 --trace 0
#   bash bench/perf/run.sh run --seed 42
#
# Build output goes to stderr, so the last line of standard output is
# perf.exe's result line.
set -euo pipefail
cd "$(dirname "$0")/../.."
# Keep everything the build writes inside the checkout: no shared dune
# cache, and the compiler's temporary files under _build.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/perf-tmp"
mkdir -p "$TMPDIR"
dune build --root . --profile release ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
