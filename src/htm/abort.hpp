#pragma once

// Abort taxonomy and transaction statistics.
//
// The paper distinguishes (Tables 3c/3f, Fig 4) aborts caused by memory
// conflicts, by speculative-buffer overflows, and by "other reasons"
// (interrupts, context switches, hardware events). The distinction is
// load-bearing for its analysis — e.g. Has-C aborts are dominated by
// buffer overflows for coarse transactions while Has-P's are not — so the
// emulation tracks them separately and exactly.

#include <cstdint>

namespace aam::htm {

enum class AbortReason : std::uint8_t {
  kConflict,  ///< another transaction/atomic committed into our footprint
  kCapacity,  ///< speculative state exceeded the HTM buffer
  kOther,     ///< interrupt/context-switch-style asynchronous abort
  kExplicit,  ///< user-requested abort (Txn::abort())
};

inline const char* to_string(AbortReason r) {
  switch (r) {
    case AbortReason::kConflict: return "conflict";
    case AbortReason::kCapacity: return "capacity";
    case AbortReason::kOther: return "other";
    case AbortReason::kExplicit: return "explicit";
  }
  return "?";
}

/// Thrown out of a transaction body when the speculative execution cannot
/// continue (capacity overflow, explicit abort). Control never returns to
/// the body, mirroring how a hardware abort rolls back to XBEGIN.
struct TxAbort {
  AbortReason reason;
};

/// Counters for one engine/thread. All counts are exact (measured from the
/// emulation, never synthesized).
struct HtmStats {
  std::uint64_t started = 0;     ///< speculative attempts (incl. retries)
  std::uint64_t committed = 0;   ///< successful speculative commits
  std::uint64_t serialized = 0;  ///< fallback/irrevocable executions
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t aborts_other = 0;
  std::uint64_t aborts_explicit = 0;
  std::uint64_t atomic_cas = 0;
  std::uint64_t atomic_acc = 0;

  std::uint64_t total_aborts() const {
    return aborts_conflict + aborts_capacity + aborts_other + aborts_explicit;
  }
  /// Transactions that eventually completed (speculatively or serialized).
  std::uint64_t completed() const { return committed + serialized; }

  bool operator==(const HtmStats&) const = default;

  void merge(const HtmStats& o) {
    started += o.started;
    committed += o.committed;
    serialized += o.serialized;
    aborts_conflict += o.aborts_conflict;
    aborts_capacity += o.aborts_capacity;
    aborts_other += o.aborts_other;
    aborts_explicit += o.aborts_explicit;
    atomic_cas += o.atomic_cas;
    atomic_acc += o.atomic_acc;
  }
};

/// Per-activity outcome reported to the `done` callback of a staged
/// transaction (always eventually succeeds at the hardware level; MayFail
/// semantics live at the algorithm level, §3.2.2).
struct TxnOutcome {
  bool serialized = false;  ///< completed on the irrevocable path
  /// Serialized because the thread hit the livelock watermark (consecutive
  /// aborts across activities, see htm::ResilienceConfig) rather than the
  /// per-activity retry policy. AdaptiveBatch treats this as a signal to
  /// enter its cooldown regime.
  bool escalated = false;
  int aborts = 0;           ///< rollbacks before completion
  double start_ns = 0;      ///< virtual time of first attempt
  double end_ns = 0;        ///< virtual completion time
};

}  // namespace aam::htm
