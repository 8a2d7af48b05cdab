#!/usr/bin/env bash
# Flat gprof profile of one (algorithm, mechanism) cell of bench_throughput.
#
# Usage: tools/profile_cell.sh <algorithm> <mechanism> [bench args...]
#
#   tools/profile_cell.sh coloring htm                # scale 14, BG/Q
#   tools/profile_cell.sh pagerank stm --scale=18
#
# Configures a RelWithDebInfo build instrumented with -pg in its own
# directory ($PROFILE_BUILD_DIR, default build-gprof at the repo root, so
# the regular build stays uninstrumented), builds bench_throughput there,
# runs the one cell on one host thread and prints the 20 functions with the
# most self time. Extra args go to bench_throughput (default --scale=14).
# The raw profile stays in <build dir>/gmon.out for `gprof -q` call graphs.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <algorithm> <mechanism> [bench_throughput args...]" >&2
  exit 2
fi
algorithm="$1"
mechanism="$2"
shift 2
args=("$@")
if [[ ${#args[@]} -eq 0 ]]; then
  args=(--scale=14)
fi

command -v gprof >/dev/null || { echo "$0: gprof not found" >&2; exit 1; }

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${PROFILE_BUILD_DIR:-$root/build-gprof}"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build" --target bench_throughput -j "$(nproc)" >&2

bin="$build/bench/bench_throughput"
# gmon.out is written to the working directory at exit.
rm -f "$build/gmon.out"
(cd "$build" && "$bin" --algorithm="$algorithm" --mechanism="$mechanism" \
  --host-threads=1 "${args[@]}" >&2)

echo "# gprof flat profile: $algorithm/$mechanism ${args[*]}"
# -b drops the field legend; the flat profile has a 5-line header.
gprof -b -p "$bin" "$build/gmon.out" | head -n 25
