#!/usr/bin/env bash
# Refresh BENCH_wallclock.json from bench_throughput runs and sanity-check
# the result.
#
# Usage: tools/bench_record.sh <bench_throughput-binary> [output.json] [args...]
#
# Extra args are forwarded to bench_throughput (e.g. --scale=12 for a CI
# smoke run, or --fault=lossy-net to record recovery-path throughput).
#
# The recorded document is the sequential (--host-threads=1) run over
# $BENCH_TRIALS trials (default 5): its simulated fields, which every trial
# shares, and per row the median "wall_seconds" and "elements_per_sec" of
# the trials with the row's "wall_seconds_min" and "wall_seconds_iqr"
# (interquartile range). The top-level "wall_ms" is the median sweep
# wall-clock and "setup_ms" the median time of the shared set-up before it
# (graph generation, CSR builds, auto policies). A "host" block names the
# machine and build the times belong to (nproc, compiler, build type; the
# last two read from the CMake build tree holding the binary, "unknown"
# outside one). A "parallel" block holds the whole-sweep wall-clock at
# --host-threads=1 and --host-threads=$BENCH_HOST_THREADS (default 4),
# median of the trials, and the resulting speedup. The simulated per-row
# fields of every trial must agree (the parallel backend's determinism
# contract); a mismatch fails the recording. Rows stay one per line:
# tests/conflict_test.cpp reads the file line by line.
#
# Exits non-zero when the binary fails or the JSON does not match the
# aam-bench-wallclock-v6 schema (missing keys, empty results, or
# non-positive throughput).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <bench_throughput-binary> [output.json] [bench args...]" >&2
  exit 2
fi

bin="$1"
shift
out="BENCH_wallclock.json"
if [[ $# -ge 1 && "${1:0:2}" != "--" ]]; then
  out="$1"
  shift
fi

trials="${BENCH_TRIALS:-5}"
par_threads="${BENCH_HOST_THREADS:-4}"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

for ((t = 0; t < trials; ++t)); do
  "$bin" --json="$tmpdir/seq_$t.json" --host-threads=1 "$@" > /dev/null
  "$bin" --json="$tmpdir/par_$t.json" --host-threads="$par_threads" "$@" \
    > /dev/null
done

python3 - "$out" "$tmpdir" "$trials" "$par_threads" "$bin" <<'EOF'
import glob, json, os, re, statistics, sys

out_path, tmpdir, trials, par_threads, binary = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]),
    sys.argv[5])

def fail(msg):
    print(f"bench_record: {msg}", file=sys.stderr)
    sys.exit(1)

def load(kind, t):
    with open(f"{tmpdir}/{kind}_{t}.json") as f:
        return json.load(f)

def sim_rows(doc):
    """The simulated (host-independent) projection of the results array."""
    keys = ("algorithm", "mechanism", "elements", "sim_time_ns", "commits",
            "aborts", "prediction_miss", "descents", "capacity_clamps",
            "checkpoints", "crashes", "replayed_sends", "lost_work_ns",
            "snapshot_bytes", "rolled_back_dropped", "rolled_back_duplicated")
    return [{k: r[k] for k in keys} for r in doc["results"]]

seq = [load("seq", t) for t in range(trials)]
par = [load("par", t) for t in range(trials)]

# Determinism gate: every trial at every host-thread count must agree on
# every simulated field.
reference = sim_rows(seq[0])
for doc in seq + par:
    if sim_rows(doc) != reference:
        fail("simulated results differ across trials/host-thread counts "
             "— the parallel backend broke determinism")

doc = seq[0]
if doc.get("schema") != "aam-bench-wallclock-v6":
    fail(f"unexpected schema {doc.get('schema')!r}")
for key in ("scale", "machine", "threads", "host_threads", "setup_ms",
            "wall_ms", "fault", "results"):
    if key not in doc:
        fail(f"missing top-level key {key!r}")
results = doc["results"]
if not isinstance(results, list) or not results:
    fail("empty results array")
mechanisms = set()
for r in results:
    for key in ("algorithm", "mechanism", "elements", "wall_seconds",
                "elements_per_sec", "sim_time_ns", "commits", "aborts",
                "prediction_miss", "descents", "capacity_clamps",
                "checkpoints", "crashes", "replayed_sends", "lost_work_ns",
                "snapshot_bytes", "rolled_back_dropped",
                "rolled_back_duplicated"):
        if key not in r:
            fail(f"result entry missing {key!r}: {r}")
    mechanisms.add(r["mechanism"])
    if r["elements"] <= 0 or r["elements_per_sec"] <= 0:
        fail(f"non-positive throughput: {r}")
if "auto" not in mechanisms:
    fail("no --mechanism=auto rows recorded")

def spread(values):
    """(median, min, interquartile range) of one row's trial values."""
    if len(values) < 2:
        return values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), min(values), q3 - q1

for i, row in enumerate(results):
    wall = [d["results"][i]["wall_seconds"] for d in seq]
    rate = [d["results"][i]["elements_per_sec"] for d in seq]
    median, low, iqr = spread(wall)
    timed = {}
    for key, value in row.items():
        timed[key] = value
        if key == "wall_seconds":
            timed[key] = median
        elif key == "elements_per_sec":
            timed[key] = statistics.median(rate)
            timed["wall_seconds_min"] = low
            timed["wall_seconds_iqr"] = round(iqr, 9)
    results[i] = timed

def build_info(binary):
    """Compiler and build type of the CMake build tree holding `binary`."""
    info = {"compiler": "unknown", "build_type": "unknown"}
    d = os.path.dirname(os.path.abspath(binary))
    while d != os.path.dirname(d):
        cache = os.path.join(d, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as f:
                m = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", f.read(),
                              re.M)
            if m and m.group(1):
                info["build_type"] = m.group(1)
            for path in glob.glob(os.path.join(
                    d, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
                with open(path) as f:
                    text = f.read()
                cid = re.search(r'CMAKE_CXX_COMPILER_ID "(.*)"', text)
                ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "(.*)"', text)
                if cid and ver:
                    info["compiler"] = f"{cid.group(1)} {ver.group(1)}"
            break
        d = os.path.dirname(d)
    return info

seq_ms = statistics.median(d["wall_ms"] for d in seq)
par_ms = statistics.median(d["wall_ms"] for d in par)
speedup = round(seq_ms / par_ms, 3) if par_ms > 0 else 0
doc["setup_ms"] = round(statistics.median(d["setup_ms"] for d in seq), 3)
doc["wall_ms"] = round(seq_ms, 3)
doc["host"] = {"nproc": os.cpu_count(), **build_info(binary)}
doc["parallel"] = {
    "trials": trials,
    "seq_wall_ms": round(seq_ms, 3),
    "par_host_threads": par_threads,
    "par_wall_ms": round(par_ms, 3),
    "speedup": speedup,
}

# Line-based consumers (tests/conflict_test.cpp) need one result row per
# line, so the document is written by hand rather than by json.dump.
fields = []
for key, value in doc.items():
    if key == "results":
        rows = ",\n".join("    " + json.dumps(r) for r in value)
        fields.append(f'  "results": [\n{rows}\n  ]')
    else:
        text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
text = "{\n" + ",\n".join(fields) + "\n}\n"
json.loads(text)  # the document must parse
with open(out_path, "w") as f:
    f.write(text)

print(f"bench_record: {out_path} OK "
      f"({len(results)} entries, scale={doc['scale']}, "
      f"machine={doc['machine']}, fault={doc['fault']}, "
      f"wall {seq_ms:.0f}ms @1 -> {par_ms:.0f}ms @{par_threads} host "
      f"threads, speedup {speedup}x over {trials} trials)")
EOF
