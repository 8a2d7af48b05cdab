#!/usr/bin/env sh
# Lint: operator bodies must mutate shared state through the access surface,
# and must take it as a *templated* parameter.
#
# Pass 1 — raw mutations. Scans every function/lambda whose parameter list
# takes an access surface — a generic `(auto& access` lambda or a templated
# `Acc& a` operator (the devirtualized spellings, see executor_impl.hpp) —
# and flags raw mutation syntax inside the body: subscripted assignments
# (x[i] = v, x[i] += v, ...) and subscripted increments (x[i]++, ++x[i]).
# Those writes bypass the synchronization mechanism entirely — no conflict
# detection, no modelled cost — which is exactly the bug class
# check::Checker's escaped-write detector catches at runtime; this catches
# the obvious spellings at review time.
#
# Pass 2 — virtual access parameters. After stripping // and /* */
# comments, flags any function parameter spelled `core::Access&`. Operator
# bodies must be templated on the access type (`template <typename Acc>`)
# so the executor can devirtualize the hot path; taking the virtual base
# directly reintroduces an indirect call per memory access and evades the
# static effect-signature analyzer, which replays operators through
# analysis::AbstractAccess via the same template seam.
#
# Pass 4 — hardwired mechanism selection. Algorithms must leave mechanism
# choice to the executor dispatch (core::ExecConfig::mechanism, which the
# intra-node Options inherit, and --mechanism=auto's AutoPolicy routing):
# after stripping comments, flags any `Mechanism::`
# literal inside src/algorithms/*.cpp. A literal there pins the algorithm
# to one synchronization mechanism, silently bypassing both the CLI flag
# and the static recommendation table. The rare legitimate mention (e.g.
# a comparison against the *configured* mechanism) is annotated with a
# `lint:allow-mechanism` comment marker.
#
# Pass 3 — nondeterminism sources. The simulator must be a pure function
# of its seed: simulated components draw randomness from util::Rng streams
# and time from the DES clock, never from the host. After stripping
# comments, flags std::rand/srand and wall-clock reads (gettimeofday,
# clock_gettime, steady_clock/system_clock/high_resolution_clock) in any
# file under src/ outside src/sim/ (the DES core legitimately defines the
# clock). Host-side measurement code under src/ that *must* read real
# time annotates the line with a `lint:allow-wallclock` comment marker;
# the bench harnesses live outside src/ and are not scanned.
#
# Pass 5 — unordered-container iteration. std::unordered_map/set iterate
# in hash-table order, which varies with libstdc++ version, load factor
# history, and pointer values: any simulated-state or output-producing
# loop over one is a determinism bug of exactly the kind the golden
# snapshots exist to catch. After stripping comments, flags range-for
# loops and .begin()/.cbegin()/.rbegin() calls on any identifier declared
# as std::unordered_map/std::unordered_set anywhere in src/ (lookups are
# fine — only iteration is order-sensitive). The rare legitimate
# iteration (e.g. draining into a sorted vector before use) is annotated
# with a `lint:allow-unordered-iter` comment marker.
#
# Pass 6 — hand-paired serializers. A checkpointed component lists its
# fields once, in `durable(util::BlobIo&)`, and the one list saves and
# restores them. After stripping comments, flags any BlobWriter or
# BlobReader outside src/util/blob.*, src/recovery/ and tests/: a
# component spelling either is back to writing its fields twice, once per
# direction, where the two lists can drift apart.
#
# Usage: lint_operators.sh [file...]
#   With no arguments, passes 1-2 lint src/algorithms/*.cpp and *.hpp,
#   pass 3 lints every src/**/*.cpp|hpp outside src/sim/, pass 5 lints
#   every src/**/*.cpp|hpp, and pass 6 lints every .cpp|hpp under src/,
#   bench/, examples/ and tools/ (fixtures excluded).
#   With arguments, all passes lint exactly those files (used by the
#   self-test: tools/lint_operators_selftest.sh runs this against
#   known-good and known-bad fixtures in tools/lint_fixtures/).
#
# Pure POSIX sh + awk (no clang tooling required). Exit 0 = clean,
# exit 1 = violations printed one per line as file:line: code.

set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
explicit_files=$#
if [ "$#" -eq 0 ]; then
  cd "$repo_root"
  set -- src/algorithms/*.cpp src/algorithms/*.hpp
fi

# The awk function the passes share: `line` without its // and /* */
# comments; `inblock` carries an unclosed /* to the next line.
strip='
function strip(line,    i, s, e) {
  if (inblock) {
    i = index(line, "*/")
    if (i == 0) return ""
    line = substr(line, i + 2)
    inblock = 0
  }
  while ((s = index(line, "/*")) > 0) {
    e = index(substr(line, s + 2), "*/")
    if (e == 0) { line = substr(line, 1, s - 1); inblock = 1; break }
    line = substr(line, 1, s - 1) substr(line, s + e + 3)
  }
  sub(/\/\/.*/, "", line)
  return line
}
'

status=0
for f in "$@"; do
  # Pass 1: raw subscripted mutations inside access-taking bodies.
  awk "$strip"'
    # Track regions that run under an access surface: from a signature line
    # with a generic access lambda or a templated access parameter, to the
    # close of its brace pair.
    /\(auto& access|\(Acc& a[,)]/ && region == 0 { region = 1; depth = 0; entered = 0 }
    region == 1 {
      line = strip($0)
      if (entered &&
          (line ~ /[A-Za-z_][A-Za-z0-9_]*\[[^]]*\][ \t]*(=[^=]|\+=|-=|\*=|\/=|\|=|&=|\^=|<<=|>>=|\+\+|--)/ ||
           line ~ /(\+\+|--)[ \t]*[A-Za-z_][A-Za-z0-9_]*\[/)) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
      }
      opens = gsub(/{/, "{", line)
      closes = gsub(/}/, "}", line)
      if (opens > 0) entered = 1
      depth += opens - closes
      if (entered && depth <= 0) region = 0
    }
    END { exit bad ? 1 : 0 }
  ' "$f" || status=1

  # Pass 2: comment-stripped scan for `core::Access&` parameters.
  awk "$strip"'
    {
      line = strip($0)
      if (line ~ /[(,][ \t]*(const[ \t]+)?core::Access[ \t]*&/) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$f" || status=1
done

# Pass 4 file set: the explicit arguments, or the algorithm .cpp files.
# The headers hold only Options structs: the intra-node ones inherit their
# Mechanism default from core::ExecConfig, and DistPrOptions declares the
# distributed runtime's default itself.
if [ "$explicit_files" -eq 0 ]; then
  set -- src/algorithms/*.cpp
fi

for f in "$@"; do
  awk "$strip"'
    {
      raw = $0
      line = strip($0)
      if (raw ~ /lint:allow-mechanism/) next
      if (line ~ /Mechanism[ \t]*::/) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$f" || status=1
done

# Pass 3 file set: the explicit arguments, or the seeded-determinism
# surface (all of src/ except the DES core, which owns the clock).
if [ "$explicit_files" -eq 0 ]; then
  set -- $(find src -name '*.cpp' -o -name '*.hpp' | grep -v '^src/sim/' | sort)
fi

for f in "$@"; do
  awk "$strip"'
    {
      raw = $0
      line = strip($0)
      if (raw ~ /lint:allow-wallclock/) next
      if (line ~ /std::rand[ \t]*\(|[^A-Za-z0-9_]srand[ \t]*\(|gettimeofday|clock_gettime|steady_clock|system_clock|high_resolution_clock/) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$f" || status=1
done

# Pass 5 file set: the explicit arguments, or everything under src/
# (hash-order nondeterminism is a bug in the DES core too).
if [ "$explicit_files" -eq 0 ]; then
  set -- $(find src -name '*.cpp' -o -name '*.hpp' | sort)
fi

for f in "$@"; do
  # Two reads of the same file: the first collects every identifier
  # declared with an unordered container type, the second flags iteration
  # over any of them (plus range-fors whose range expression spells an
  # unordered type directly).
  awk "$strip"'
    NR == FNR {
      line = $0
      sub(/\/\/.*/, "", line)
      while (match(line, /std::unordered_(map|set)[ \t]*</)) {
        rest = substr(line, RSTART + RLENGTH)
        depth = 1
        i = 1
        while (i <= length(rest) && depth > 0) {
          c = substr(rest, i, 1)
          if (c == "<") depth++
          else if (c == ">") depth--
          i++
        }
        rest = substr(rest, i)
        if (match(rest, /^[ \t]*&?[ \t]*[A-Za-z_][A-Za-z0-9_]*/)) {
          name = substr(rest, RSTART, RLENGTH)
          gsub(/[ \t&]/, "", name)
          names[name] = 1
        }
        line = rest
      }
      next
    }
    FNR == 1 { inblock = 0 }
    {
      raw = $0
      line = strip($0)
      if (raw ~ /lint:allow-unordered-iter/) next
      hit = 0
      if (line ~ /for[ \t]*\([^;]*:[ \t]*[^;]*unordered_(map|set)/) hit = 1
      for (n in names) {
        if (line ~ ("for[ \t]*\\([^;]*:[ \t]*\\*?" n "[ \t]*\\)") ||
            line ~ ("(^|[^A-Za-z0-9_.])" n "[ \t]*\\.[ \t]*c?r?begin[ \t]*\\(")) {
          hit = 1
        }
      }
      if (hit) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$f" "$f" || status=1
done

# Pass 6 file set: the explicit arguments, or every C++ file of the
# program outside the fixtures. Either way the serializer's own files,
# the recovery layer and the tests are exempt by path.
if [ "$explicit_files" -eq 0 ]; then
  set -- $(find src bench examples tools -name '*.cpp' -o -name '*.hpp' |
           grep -v '^tools/lint_fixtures/' | sort)
fi

for f in "$@"; do
  case "$f" in
    src/util/blob.* | */src/util/blob.* | src/recovery/* | */src/recovery/* | \
      tests/* | */tests/*) continue ;;
  esac
  awk "$strip"'
    {
      line = strip($0)
      if (line ~ /(^|[^A-Za-z0-9_])Blob(Writer|Reader)([^A-Za-z0-9_]|$)/) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$f" || status=1
done

if [ "$status" -ne 0 ]; then
  echo "lint_operators: operator bodies must route mutations through the" >&2
  echo "access surface (access.store/cas/fetch_add), take it as a templated" >&2
  echo "Acc& parameter (never core::Access& directly), simulated code must" >&2
  echo "draw time/randomness from the DES clock and util::Rng, not the host" >&2
  echo "(mark intentional host-time reads with lint:allow-wallclock), and" >&2
  echo "src/ must never iterate an unordered container (hash order is not" >&2
  echo "deterministic; mark exceptions with lint:allow-unordered-iter)," >&2
  echo "and checkpointed state must be listed once in durable(util::BlobIo&)" >&2
  echo "(BlobWriter/BlobReader belong to src/util/blob.*, src/recovery/ and" >&2
  echo "tests/ only)" >&2
fi
exit "$status"
