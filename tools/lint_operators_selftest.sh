#!/usr/bin/env sh
# Self-test for tools/lint_operators.sh against the known-good/known-bad
# fixtures in tools/lint_fixtures/. Guards the lint itself: a regression
# that silently accepts everything (or rejects clean operators) fails here
# before it can rot in CI.

set -u

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
lint="$here/lint_operators.sh"
fixtures="$here/lint_fixtures"
fail=0

if ! "$lint" "$fixtures/good_operator.hpp"; then
  echo "FAIL: good_operator.hpp rejected (false positive)" >&2
  fail=1
fi
if "$lint" "$fixtures/bad_raw_write.hpp" >/dev/null 2>&1; then
  echo "FAIL: bad_raw_write.hpp accepted (raw-write pass broken)" >&2
  fail=1
fi
if "$lint" "$fixtures/bad_access_param.hpp" >/dev/null 2>&1; then
  echo "FAIL: bad_access_param.hpp accepted (core::Access& pass broken)" >&2
  fail=1
fi
if "$lint" "$fixtures/bad_wallclock.hpp" >/dev/null 2>&1; then
  echo "FAIL: bad_wallclock.hpp accepted (wall-clock pass broken)" >&2
  fail=1
fi
if ! "$lint" "$fixtures/good_wallclock_marker.hpp"; then
  echo "FAIL: good_wallclock_marker.hpp rejected (allow marker broken)" >&2
  fail=1
fi
if "$lint" "$fixtures/bad_mechanism_literal.cpp" >/dev/null 2>&1; then
  echo "FAIL: bad_mechanism_literal.cpp accepted (mechanism pass broken)" >&2
  fail=1
fi
if ! "$lint" "$fixtures/good_mechanism_marker.cpp"; then
  echo "FAIL: good_mechanism_marker.cpp rejected (allow marker broken)" >&2
  fail=1
fi
if "$lint" "$fixtures/bad_unordered_iter.hpp" >/dev/null 2>&1; then
  echo "FAIL: bad_unordered_iter.hpp accepted (unordered-iter pass broken)" >&2
  fail=1
fi
if ! "$lint" "$fixtures/good_unordered_marker.hpp"; then
  echo "FAIL: good_unordered_marker.hpp rejected (lookup or marker broken)" >&2
  fail=1
fi
if "$lint" "$fixtures/bad_blob_serializer.hpp" >/dev/null 2>&1; then
  echo "FAIL: bad_blob_serializer.hpp accepted (serializer pass broken)" >&2
  fail=1
fi
if ! "$lint" "$fixtures/good_blob_durable.hpp"; then
  echo "FAIL: good_blob_durable.hpp rejected (serializer pass broken)" >&2
  fail=1
fi
# The real tree must still be clean under every pass.
if ! "$lint"; then
  echo "FAIL: src/algorithms/ no longer passes the lint" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "lint_operators self-test: OK"
fi
exit "$fail"
