#!/usr/bin/env sh
# Usage: expect_usage_error.sh <pattern> <binary> [args...]
# Passes when the binary exits 2 with a diagnostic containing the fixed
# string <pattern>: a bad flag must fail loudly, not run an empty or a
# different experiment.
set -u
pattern="$1"
shift
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 2 ] || { echo "exit $rc, want 2: $*" >&2; exit 1; }
printf '%s\n' "$out" | grep -qF -- "$pattern" ||
  { echo "no \"$pattern\" in the diagnostic: $*" >&2; exit 1; }
