#pragma once

// The atomic-operation vocabulary of §2.3, for real threads.
//
// The DES engine exposes the same operations on simulated memory through
// ThreadCtx (cas / fetch_add); these free functions are the std::atomic
// counterparts for host-thread code. They mirror the paper's taxonomy:
// Accumulate (ACC), Fetch-and-Op (FAO), and Compare-and-Swap (CAS).

#include <atomic>
#include <cstdint>

namespace aam::atomics {

/// Accumulate(*target, arg, op): applies `op` to *target atomically.
/// op is a pure callable T(T,T); implemented as a CAS loop so any
/// associative op works (matches GCC __sync_* generality).
template <typename T, typename Op>
void accumulate(std::atomic<T>& target, T arg, Op op) {
  T cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, op(cur, arg),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
  }
}

/// Fetch-and-Op(*target, arg, op): like accumulate but returns the
/// previous value.
template <typename T, typename Op>
T fetch_and_op(std::atomic<T>& target, T arg, Op op) {
  T cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, op(cur, arg),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
  }
  return cur;
}

/// Compare-and-Swap(*target, compare, value, *result) per §2.3: writes
/// `value` iff *target == compare; *result reports success.
template <typename T>
void compare_and_swap(std::atomic<T>& target, T compare, T value,
                      bool* result) {
  T expected = compare;
  *result = target.compare_exchange_strong(expected, value,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed);
}

/// Atomic fetch-min: lowers *target to `value` if smaller; returns true if
/// this call lowered it. The lock-free BFS/SSSP building block.
template <typename T>
bool fetch_min(std::atomic<T>& target, T value) {
  T cur = target.load(std::memory_order_relaxed);
  while (value < cur) {
    if (target.compare_exchange_weak(cur, value, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Atomic add for doubles (no std::atomic<double>::fetch_add pre-C++20
/// on all targets; CAS loop keeps it portable).
inline double fetch_add_double(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
  }
  return cur;
}

/// Test-and-test-and-set spinlock on its own cache line; the "fine lock"
/// primitive of the Galois-like baseline (§6.1.2).
class alignas(64) SpinLock {
 public:
  void lock() {
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) {
      }
    }
  }
  bool try_lock() {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }
  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace aam::atomics
