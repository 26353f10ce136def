#!/usr/bin/env bash
# CI entry point: build + test the full configuration matrix.
#
#   tools/ci/run_matrix.sh            # every configuration
#   tools/ci/run_matrix.sh default    # one configuration by name
#   tools/ci/run_matrix.sh lint asan  # any subset
#
# Configurations:
#   lint     the `lint` ctest label (tapo_lint fixture self-test +
#            full-tree lint, the same gate a plain ctest run includes),
#            plus clang-tidy when available (with CI=1 a missing
#            clang-tidy fails the build — see the tidy target in
#            CMakeLists.txt)
#   default  plain RelWithDebInfo build, full ctest
#   asan     -fsanitize=address, full ctest
#   ubsan    -fsanitize=undefined, full ctest
#   tsan     -fsanitize=thread, full ctest
#   (a full ctest runs every gtest case as its own entry plus the harness
#   and CLI entries: the capture-robustness, chaos-storm, fleet and
#   streaming harnesses and the concurrency suites all run under every
#   sanitizer. Every TAPO_SANITIZE configuration keeps assert() on, so the
#   debug cross-checks run instrumented: the mimic's per-packet scoreboard
#   recount, and the sender scoreboard's recount after every mutation,
#   which the chaos storm's hostile flows drive too. It also defines
#   _GLIBCXX_ASSERTIONS, so every std::span and std::vector index is
#   bounds-checked: the pcap reader's frames are spans into one shared
#   read block, where an over-long read stays inside valid memory)
#   thread-safety  Clang-only static gate: builds with clang++ and
#            -DTAPO_THREAD_SAFETY=ON (-Wthread-safety -Werror=thread-safety
#            over the TAPO_* capability annotations, plus the configure-time
#            positive/negative try_compile probes), then runs the full
#            ctest. Skipped loudly when clang++ is not installed — unless
#            CI is set, where missing clang++ is a hard failure instead of
#            a silent skip
#   perf     smoke run of the performance benchmark: bench/perf_baseline/
#            run.sh --seconds=1 over all four workloads (sim_web,
#            sim_cloud, pcap_batch, pcap_stream) on its own Release build.
#            Fails only on the harness's exit code, i.e. on its output
#            checks (per-workload digests, record read-back, the memory
#            budget's high-water mark). The numbers are printed but never
#            gated: runner wall-clock is too noisy for absolute bounds.
#            Compare two commits with `run.sh compare` instead (see
#            bench/perf_baseline/README.md)
#
# Not a configuration: tools/ci/compare_outputs.sh <base-ref> builds a
# base ref beside the working tree and diffs every bench, harness and CLI
# output between them, so a change that claims bit-identical output can
# show it.
#

# Each configuration gets its own build tree under build-ci/ so sanitizer
# flags never bleed between them.
set -euo pipefail

cd "$(dirname "$0")/../.."

JOBS="${JOBS:-$(nproc)}"
CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(lint default asan ubsan tsan thread-safety perf)
fi

build_and_test() {
  local name="$1" sanitize="$2"
  local dir="build-ci/${name}"
  echo "=== [${name}] configure (TAPO_SANITIZE='${sanitize}') ==="
  cmake -B "${dir}" -S . -DTAPO_SANITIZE="${sanitize}" -DTAPO_WERROR=ON
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

for cfg in "${CONFIGS[@]}"; do
  case "${cfg}" in
    lint)
      dir="build-ci/lint"
      cmake -B "${dir}" -S . -DTAPO_WERROR=ON
      cmake --build "${dir}" -j "${JOBS}" --target tapo_lint
      ctest --test-dir "${dir}" --output-on-failure -L lint
      # tidy is part of the lint job: clang-tidy runs when installed; under
      # CI=1 a missing binary is a hard failure instead of a silent skip.
      cmake --build "${dir}" --target tidy
      ;;
    default) build_and_test default "" ;;
    asan)    build_and_test asan address ;;
    ubsan)   build_and_test ubsan undefined ;;
    tsan)    build_and_test tsan thread ;;
    thread-safety)
      dir="build-ci/thread-safety"
      if command -v clang++ >/dev/null 2>&1; then
        echo "=== [thread-safety] configure (clang++, -Werror=thread-safety) ==="
        cmake -B "${dir}" -S . -DCMAKE_CXX_COMPILER=clang++ \
          -DTAPO_THREAD_SAFETY=ON -DTAPO_WERROR=ON
        echo "=== [thread-safety] build ==="
        cmake --build "${dir}" -j "${JOBS}"
        echo "=== [thread-safety] ctest ==="
        ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
      elif [ -n "${CI:-}" ]; then
        echo "FATAL: thread-safety config needs clang++ but it is not" \
          "installed and CI is set; the static gate cannot run" >&2
        exit 1
      else
        echo "=== [thread-safety] SKIPPED: clang++ not found (the" \
          "-Wthread-safety analysis is Clang-only; install clang to run" \
          "this configuration locally) ==="
      fi
      ;;
    perf)
      echo "=== [perf] bench/perf_baseline/run.sh --seconds=1 ==="
      bash bench/perf_baseline/run.sh --seconds=1
      ;;
    *)
      echo "unknown configuration: ${cfg}" >&2
      exit 2
      ;;
  esac
done

echo "=== matrix OK: ${CONFIGS[*]} ==="
