#!/usr/bin/env bash
# Flat gprof profile of one (algorithm, mechanism) cell of bench_throughput.
#
# Usage: tools/profile_cell.sh <algorithm> <mechanism> [bench args...]
#
#   tools/profile_cell.sh coloring htm                # scale 14, BG/Q
#   tools/profile_cell.sh pagerank stm --scale=18
#   tools/profile_cell.sh pagerank-dist am            # the distributed row
#
# The distributed row's mechanism is `am` (its table label), which is not a
# --mechanism choice: `am` passes no --mechanism flag, since the row runs
# under every selection.
#
# Configures a RelWithDebInfo build instrumented with -pg in its own
# directory ($PROFILE_BUILD_DIR, default build-gprof at the repo root, so
# the regular build stays uninstrumented), builds bench_throughput there,
# runs the one cell on one host thread and prints the 20 functions with the
# most self time. Extra args go to bench_throughput (default --scale=14).
# The raw profile stays in <build dir>/gmon.out for `gprof -q` call graphs,
# and the whole flat profile in <build dir>/flat_profile.txt.
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

# Without the -fno-* flags GCC splits functions into .isra/.part/.constprop
# clones, and gprof charges a clone's samples to whatever symbol precedes
# it (a sort inlined into a clone showed up as a destructor).
cxx_flags="-pg -fno-ipa-sra -fno-ipa-cp-clone -fno-partial-inlining"
cached="$(sed -n 's/^CMAKE_CXX_FLAGS:STRING=//p' "$build/CMakeCache.txt" \
  2>/dev/null || true)"
if [[ "$cached" != "$cxx_flags" ]]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DCMAKE_CXX_FLAGS=$cxx_flags" -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build" --target bench_throughput -j "$(nproc)" >&2

bin="$build/bench/bench_throughput"
# gmon.out is written to the working directory at exit.
rm -f "$build/gmon.out"
mechanism_flag=(--mechanism="$mechanism")
if [[ "$mechanism" == am ]]; then
  mechanism_flag=()
fi
(cd "$build" && "$bin" --algorithm="$algorithm" "${mechanism_flag[@]}" \
  --host-threads=1 "${args[@]}" >&2)

echo "# gprof flat profile: $algorithm/$mechanism ${args[*]}"
# -b drops the field legend; the flat profile has a 5-line header. The
# profile goes through a file: piped into head, gprof can die of SIGPIPE,
# which pipefail turns into the script's exit status.
gprof -b -p "$bin" "$build/gmon.out" > "$build/flat_profile.txt"
head -n 25 "$build/flat_profile.txt"
