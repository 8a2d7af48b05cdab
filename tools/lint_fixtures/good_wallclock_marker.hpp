#pragma once

// Self-test fixture for tools/lint_operators.sh: the lint must ACCEPT this
// file (exit 0). Host-side measurement code that legitimately reads real
// time opts out of pass 3 with the `lint:allow-wallclock` marker on the
// offending line.

#include <chrono>

namespace lint_fixture {

inline double marked_elapsed_ns() {
  const auto t0 = std::chrono::steady_clock::now();  // lint:allow-wallclock
  const auto t1 = std::chrono::steady_clock::now();  // lint:allow-wallclock
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

}  // namespace lint_fixture
