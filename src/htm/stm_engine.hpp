#pragma once

// Threaded software transactional memory engine.
//
// The DES engine (des_engine.hpp) models performance; this engine provides
// *real* isolation and atomicity on real std::threads, behind the same
// load/store/fetch_add surface. It exists so the test suite can exercise
// transaction semantics under genuine OS-level concurrency (linearizability
// and invariant checks) and so examples can run outside the simulator.
//
// The algorithm is TL2-flavoured word-based STM:
//   * a global version clock;
//   * a fixed table of versioned spinlocks, one per hashed address stripe;
//   * reads validate stripe versions against the transaction's snapshot;
//   * writes are buffered and published at commit under stripe locks taken
//     in canonical order (no deadlock), with read-set revalidation.
//
// This is the paper's observation that "other mechanisms such as
// distributed STM could also be used" (§8) made concrete.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "htm/abort.hpp"
#include "mem/footprint.hpp"
#include "util/check.hpp"

namespace aam::htm {

class StmEngine;

/// Transactional context for the threaded STM. Mirrors the Txn surface of
/// the DES engine so operator code can be written once and templated.
class StmTxn {
 public:
  template <typename T>
  T load(const T& ref) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(&ref);
    const std::uint64_t word = load_word(addr & ~std::uintptr_t{7});
    T out;
    std::memcpy(&out, reinterpret_cast<const char*>(&word) + (addr & 7u),
                sizeof(T));
    return out;
  }

  template <typename T>
  void store(T& ref, T value) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(&ref);
    const std::uintptr_t word_addr = addr & ~std::uintptr_t{7};
    std::uint64_t word = load_word(word_addr);
    std::memcpy(reinterpret_cast<char*>(&word) + (addr & 7u), &value,
                sizeof(T));
    store_word(word_addr, word);
  }

  template <typename T>
  T fetch_add(T& ref, T delta) {
    const T old = load(ref);
    store(ref, static_cast<T>(old + delta));
    return old;
  }

  [[noreturn]] void abort() { throw TxAbort{AbortReason::kExplicit}; }

  bool serialized() const { return false; }

  /// A reusable context for `engine`'s transactions: atomically(txn, body)
  /// clears it at every begin, so one context can serve a thread's
  /// transactions back to back without reallocating its buffers.
  explicit StmTxn(StmEngine& engine) : engine_(engine) {}

 private:
  friend class StmEngine;

  std::uint64_t load_word(std::uintptr_t word_addr);
  void store_word(std::uintptr_t word_addr, std::uint64_t word);

  StmEngine& engine_;
  std::uint64_t snapshot_ = 0;
  mem::WordMap write_buffer_;
  std::vector<std::uint32_t> read_stripes_;
  std::vector<std::uint32_t> write_stripes_;
  mem::EpochSet seen_read_;
  mem::EpochSet seen_write_;
};

class StmEngine {
 public:
  /// `stripe_locks` is rounded up to a power of two.
  explicit StmEngine(std::size_t stripe_locks = std::size_t{1} << 16);

  StmEngine(const StmEngine&) = delete;
  StmEngine& operator=(const StmEngine&) = delete;

  /// Runs `body(StmTxn&)` atomically, retrying on conflicts with
  /// exponential backoff. Returns the number of aborts endured.
  /// An explicit Txn::abort() rolls back and does NOT retry (the activity
  /// chose to do nothing); this matches May-Fail operator usage.
  template <typename F>
  TxnOutcome atomically(F&& body) {
    StmTxn txn(*this);
    return atomically(txn, std::forward<F>(body));
  }

  /// Same, running in the caller's context `txn` (created for this
  /// engine, used by one thread at a time) instead of a fresh one.
  template <typename F>
  TxnOutcome atomically(StmTxn& txn, F&& body) {
    AAM_DCHECK(&txn.engine_ == this);
    TxnOutcome outcome;
    for (int attempt = 0;; ++attempt) {
      begin(txn);
      try {
        body(txn);
      } catch (const TxAbort& a) {
        if (a.reason == AbortReason::kExplicit) {
          stats_explicit_.fetch_add(1, std::memory_order_relaxed);
          return outcome;
        }
        ++outcome.aborts;
        backoff(attempt);
        continue;
      }
      if (commit(txn)) {
        stats_commits_.fetch_add(1, std::memory_order_relaxed);
        return outcome;
      }
      ++outcome.aborts;
      stats_aborts_.fetch_add(1, std::memory_order_relaxed);
      backoff(attempt);
    }
  }

  std::uint64_t commits() const { return stats_commits_.load(); }
  std::uint64_t aborts() const { return stats_aborts_.load(); }
  /// Aborts requested by the transaction body via StmTxn::abort().
  /// Counted separately from aborts(), which tallies only commit-time
  /// validation/lock conflicts: an explicit abort is a completed activity
  /// that chose to do nothing, not a retry.
  std::uint64_t explicit_aborts() const { return stats_explicit_.load(); }

 private:
  friend class StmTxn;

  struct alignas(64) VersionedLock {
    std::atomic<std::uint64_t> word{0};  // LSB = locked, upper bits = version
  };

  std::uint32_t stripe_of(std::uintptr_t addr) const;
  void begin(StmTxn& txn);
  bool commit(StmTxn& txn);
  static void backoff(int attempt);

  std::vector<VersionedLock> locks_;
  std::uint32_t mask_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> stats_commits_{0};
  std::atomic<std::uint64_t> stats_aborts_{0};
  std::atomic<std::uint64_t> stats_explicit_{0};
};

}  // namespace aam::htm
