#!/usr/bin/env bash
# Output-identity check between a base git ref and the working tree.
#
#   tools/ci/compare_outputs.sh <base-ref>
#
# Builds <base-ref> and the working tree (RelWithDebInfo, each in its own
# tree under build-ci/compare/), runs the same deterministic programs with
# the same arguments in both, and diffs what they print and write:
#   - the 19 paper and ablation benches (table*, fig*, ablate_*)
#   - chaos_storm, robustness_stability, fleet_scale and streaming_scale
#     (the live analyzer under a memory budget); chaos_storm and
#     robustness_stability run with --telemetry-out=tel_<name>, and the
#     tapo_chaos_injected_total and tapo_capture_injected_total lines of
#     their metrics.prom, the per-kind count of each injected fault, are
#     kept as <name>_injected.prom (the rest of that file holds wall-clock
#     gauges, and the other artifacts are traces)
#   - tapo_agg emit (the shard files' bytes), then tapo_agg merge: the
#     fleet report and its --prom exposition
#   - pcap_analyze --demo: the capture's bytes and the --csv files, then
#     the capture analyzed with --summary, --live, --mem-budget 65536 and
#     --tau 3 --server-port 80; the --live and --mem-budget runs also write
#     --csv files (live_*.csv, budget_*.csv), so the live path is compared
#     flow by flow, in finalize order, not only by its aggregates
#   - the example CLIs that drive the sender outside the benches:
#     quickstart 0.08 150 60000, srto_ab web 300 0.05, srto_ab cloud 100
#     and service_comparison
#
# Everything is seeded, so the outputs must match byte for byte. Only the
# lines that carry wall-clock figures are dropped before the diff, matched
# by these patterns:
#   [perf]       the bench runner banner (wall s, flows/s, worker s)
#   records/s    fleet_scale's emit and ingest throughput lines
#   [telemetry]  the artifact lines of the two runs above (trace event
#                and drop counts)
# streaming_scale's two durations ("in N.NNs") are masked in place
# instead, so its flow, packet, peak and eviction figures are still
# compared.
# Any other difference is a behaviour change: the script prints the diff
# and exits 1. It exits 0 when the outputs are identical, 2 on a usage or
# build error.
#
# The base ref is extracted with `git archive` (no worktree is
# registered). Its build tree is kept for the next run against the same
# commit and deleted before a run against another: `git archive` stamps
# every file with its commit's time, so a build of a later base would
# look up to date and run that base's binaries. JOBS sets the build
# parallelism; TAPO_BENCH_FLOWS, when set, scales the benches in both
# trees alike.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_ref="$1"

cd "$(dirname "$0")/../.."
root="$(pwd)"
work="${root}/build-ci/compare"
JOBS="${JOBS:-$(nproc)}"

git rev-parse --verify --quiet "${base_ref}^{commit}" >/dev/null || {
  echo "error: '${base_ref}' is not a commit" >&2
  exit 2
}

benches=(
  table1_flow_stats fig1_rtt_rto fig2_stall_anatomy fig3_stall_ratio
  table3_stall_categories table4_zero_rwnd table5_retrans_breakdown
  table6_double_types table7_tail_states fig6_init_rwnd fig7_double_context
  fig10_tail_context fig11_inflight_cdf fig12_contloss_inflight
  table8_srto_latency table9_retrans_ratio ablate_pacing ablate_srto_params
  ablate_stall_tau
)
harnesses=(chaos_storm robustness_stability fleet_scale streaming_scale)
examples=(quickstart srto_ab service_comparison)
targets=("${benches[@]}" "${harnesses[@]}" "${examples[@]}" tapo_agg pcap_analyze)

# Lines carrying wall-clock figures (see the header).
strip='\[perf\]|records/s\b|\[telemetry\]'
# The harnesses whose injected-fault counts are compared.
counted=(chaos_storm robustness_stability)

build() {  # <source dir> <build dir>
  cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTAPO_WERROR=OFF >/dev/null
  cmake --build "$2" -j "${JOBS}" --target "${targets[@]}" >/dev/null
}

# Runs a command with its stdout and stderr in file $1; a non-zero exit
# status is recorded in the file, so it shows up in the diff.
run() {
  local file="$1"
  shift
  "$@" >"${file}" 2>&1 || echo "exit $?" >>"${file}"
}

# Runs every program from build dir $1 inside output dir $2, writing one
# file per output there. Paths are relative, so the two runs print the same.
collect() {
  local bin="$1" out="$2"
  rm -rf "${out}"
  mkdir -p "${out}"
  cd "${out}"
  for b in "${benches[@]}" "${harnesses[@]}"; do
    if [[ " ${counted[*]} " == *" ${b} "* ]]; then
      run "${b}.txt" "${bin}/bench/${b}" "--telemetry-out=tel_${b}"
      grep -E '^tapo_(chaos|capture)_injected_total' "tel_${b}/metrics.prom" \
        >"${b}_injected.prom" || true
      rm -rf "tel_${b}"
    else
      run "${b}.txt" "${bin}/bench/${b}"
    fi
  done
  local agg="${bin}/tools/tapo_agg/tapo_agg"
  run tapo_agg_emit.txt "${agg}" emit --out=shards --shards=4 --flows=25
  run tapo_agg_merge.txt "${agg}" merge --ingest-dir=shards --window-s=10 \
    --prom=fleet.prom
  local pa="${bin}/examples/pcap_analyze"
  run pcap_demo_csv.txt "${pa}" --demo demo.pcap --csv demo
  run pcap_summary.txt "${pa}" demo.pcap --summary
  run pcap_live.txt "${pa}" demo.pcap --live --csv live --summary
  run pcap_budget.txt "${pa}" demo.pcap --mem-budget 65536 --csv budget \
    --summary
  run pcap_tau_port.txt "${pa}" demo.pcap --tau 3 --server-port 80 --summary
  local ex="${bin}/examples"
  run quickstart.txt "${ex}/quickstart" 0.08 150 60000
  run srto_ab_web.txt "${ex}/srto_ab" web 300 0.05
  run srto_ab_cloud.txt "${ex}/srto_ab" cloud 100
  run service_comparison.txt "${ex}/service_comparison"
  cd "${root}"
}

echo "=== extracting ${base_ref} ==="
rm -rf "${work}/base-src"
mkdir -p "${work}/base-src"
git archive "${base_ref}" | tar -x -C "${work}/base-src"
base_commit="$(git rev-parse "${base_ref}^{commit}")"
if [ "$(cat "${work}/base-build/.commit" 2>/dev/null)" != "${base_commit}" ]; then
  rm -rf "${work}/base-build"
fi

echo "=== building ${base_ref} and the working tree ==="
for side in base head; do
  src="${root}"
  [ "${side}" = base ] && src="${work}/base-src"
  build "${src}" "${work}/${side}-build" || {
    echo "error: building the ${side} tree failed" >&2
    exit 2
  }
done
echo "${base_commit}" >"${work}/base-build/.commit"

echo "=== running ==="
collect "${work}/base-build" "${work}/base-out"
collect "${work}/head-build" "${work}/head-out"

# Drop the wall-clock lines from every text output and mask
# streaming_scale's durations, then compare the two trees file by file.
# The shard files, the demo capture and the CSVs (batch, live and
# budgeted) are compared byte for byte.
for f in "${work}"/{base,head}-out/*.txt; do
  grep -Ev "${strip}" "${f}" >"${f}.kept" || true
  mv "${f}.kept" "${f}"
done
sed -Ei 's/ in [0-9]+\.[0-9]+s,/ in N.NNs,/' \
  "${work}"/{base,head}-out/streaming_scale.txt
status=0
diff -ru "${work}/base-out" "${work}/head-out" || status=1

if [ "${status}" -eq 0 ]; then
  echo "=== outputs identical to ${base_ref} ==="
else
  echo "=== outputs differ from ${base_ref} ===" >&2
fi
exit "${status}"
