#!/usr/bin/env bash
# Builds the gridpipe benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--quick] [--out FILE] [--seconds S] [--trace 0|1]
#       Every workload, each in its own process, end-to-end and (by
#       default) per-layer metrics. Prints every metric with its unit,
#       writes one JSON result (default build/benchmark/results/result.json)
#       plus each substrate's Chrome trace next to it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#       One workload (trace 0 by default). The last stdout line is its
#       result: {"correct", "attempted", "failed", "metrics"}.
#
# Builds into build/benchmark/. Exits non-zero when the build fails, an
# argument is wrong, or any output was wrong or missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(cd "$here/.." && pwd -P)"
build="$root/build/benchmark"

workload=""
seed=1
seconds=20
trace=""
quick=()
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload|--seed|--seconds|--trace|--out)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
      esac
      shift 2 ;;
    --quick) quick=(--quick); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: the gridpipe sources are not next to benchmark/ in $root" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target gridpipe_bench -j "$jobs" >&2
bin="$build/gridpipe_bench"

sha=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [[ "$top" == "$root" ]]; then
  sha="$(git -C "$root" rev-parse HEAD)"
  git -C "$root" diff --quiet HEAD 2>/dev/null || sha="$sha-dirty"
fi

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "${trace:-0}" "${quick[@]}" --git-sha "$sha" ${out:+--out "$out"}
fi

results="$build/results"
mkdir -p "$results"
out="${out:-$results/result.json}"
status=0
parts=()
for w in trickle flood-small flood-large adapt-loadstep; do
  part="$results/$w.json"
  rm -f "$part"
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "${trace:-1}" "${quick[@]}" --git-sha "$sha" \
    --out "$part" --trace-dir "$results" || status=1
  [[ -s "$part" ]] && parts+=("$part")
done
{
  printf '{"workloads": ['
  sep=""
  for part in "${parts[@]}"; do
    printf '%s' "$sep"
    cat "$part"
    sep=","
  done
  printf ']}\n'
} > "$out"
echo "result   $out"
[[ ${#parts[@]} -eq 4 ]] || status=1
exit "$status"
