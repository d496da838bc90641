#!/usr/bin/env bash
# Captures the modelled output of every scenario binary in a build directory: each
# bench_* except bench_campaign_overhead, plus every example_*, one file per binary in
# <out-dir>. Lines starting with [wall] or [sweep] carry host wall time, thread counts
# and memory, so they are stripped; everything left is a pure function of the source
# and must be byte-identical across builds and pool sizes. micro_core is not a
# bench_* binary and is never run. bench_campaign_overhead is excluded because its
# serial/distributed rows report host time; it checks its own archive identity.
#
# A refactor that must not change behaviour is proven byte-identical with
#
#   tools/scenario_outputs.sh build-before out-before
#   tools/scenario_outputs.sh build-after out-after
#   diff -r out-before out-after
#
# run under the same environment (TBF_SWEEP_THREADS / TBF_SHARD_THREADS).
#
# Usage: tools/scenario_outputs.sh <build-dir> <out-dir>
set -euo pipefail

BUILD=${1:?usage: scenario_outputs.sh <build-dir> <out-dir>}
OUT=${2:?usage: scenario_outputs.sh <build-dir> <out-dir>}

mkdir -p "$OUT"
count=0
for bin in "$BUILD"/bench_* "$BUILD"/example_*; do
  name=$(basename "$bin")
  if [[ ! -x "$bin" || "$name" == bench_campaign_overhead ]]; then
    continue
  fi
  # A failing binary fails the capture: its exit status survives the filter.
  "$bin" | { grep -v -e '^\[wall\]' -e '^\[sweep\]' || true; } > "$OUT/$name.txt"
  count=$((count + 1))
done
if [[ "$count" -eq 0 ]]; then
  echo "scenario_outputs: no bench_*/example_* binaries in $BUILD" >&2
  exit 1
fi
echo "scenario_outputs: captured $count binaries into $OUT"
