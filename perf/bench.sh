#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash perf/bench.sh run suite --seed 1
#   bash perf/bench.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under the repository: the build in _build/,
# campaign stores, Chrome traces and the GC event ring in perf/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
mkdir -p perf/out
export OCAML_RUNTIME_EVENTS_DIR="$PWD/perf/out"
dune build --root . --cache=disabled --display=quiet ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe "$@"
