#!/usr/bin/env bash
# Build motor_bench from this checkout and run it with the given arguments:
#
#   bash benchmark/run.sh --workload pingpong --seed 1 --seconds 12 --trace 0
#
# Run from the root of a Motor checkout. The build goes to .bench_build/
# (release profile, dune cache off, temporary files kept inside the
# checkout); its output goes to stderr so that the benchmark's last line of
# standard output stays its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d tools ]; then
  echo "benchmark/run.sh: not the root of a Motor checkout (no dune-project, lib/ or tools/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

build=.bench_build
mkdir -p "$build/tmp" "$build/cache"
export TMPDIR="$PWD/$build/tmp" XDG_CACHE_HOME="$PWD/$build/cache" DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --profile release ./benchmark/motor_bench.exe 1>&2

exec "$build/default/benchmark/motor_bench.exe" "$@"
