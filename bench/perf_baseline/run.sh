#!/usr/bin/env bash
# Builds the perf_baseline harness (Release, into build/perf_baseline/) and
# runs it from the repository root.
#
#   bench/perf_baseline/run.sh [--workload=NAME] [--seed=N] [--seconds=N]
#                              [--trace=0|1] [--trace-out=DIR] [--save=DIR]
#   bench/perf_baseline/run.sh compare A_DIR B_DIR
#
# Build output goes to stderr, so the last line on stdout is the last
# workload's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/perf_baseline"
log="$build/build.log"

mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  if ! cmake -S "$here" -B "$build" "${generator[@]}" \
       -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    cat "$log" >&2
    rm -f "$build/CMakeCache.txt"
    echo "run.sh: configuring the harness failed" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target perf_baseline -j "$(nproc)" >"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: building the harness failed" >&2
  exit 1
fi

cd "$root"
if [[ "${1:-}" == "compare" ]]; then
  exec "$build/perf_baseline" "$@"
fi
exec "$build/perf_baseline" run "$@"
