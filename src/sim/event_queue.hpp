#pragma once

// Deterministic discrete-event queue.
//
// Events are ordered by (time, sequence number); the sequence number is
// assigned at push time, so ties resolve in insertion order and a run is
// bit-reproducible regardless of heap internals. (time, seq) is a total
// order — seq is unique — so *any* correct heap pops the same sequence;
// the layout tricks below cannot change observable order.
//
// Layout: a 4-ary min-heap whose slots carry one 128-bit key — the bits of
// the (non-negative) time in the high word, seq in the low word — so a
// (time, seq) comparison is a single unsigned compare. For non-negative
// doubles the bit pattern orders like the value; push adds +0.0 to map
// -0.0 onto +0.0 first, exactly as the two compare equal in time. The
// four children of a slot are picked with branch-free compares.
//
// Shard ownership: under the parallel backend each queue belongs to
// exactly one shard (sim/shard.hpp) and must only ever be touched from
// that shard's job. bind_shard() arms an always-on affinity check in
// push/pop, so a cross-shard mutation bug dies deterministically on the
// offending access instead of racing. Unbound queues (the legacy
// single-threaded path) skip the thread-local lookup entirely.

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/shard.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace aam::sim {

struct Event {
  Time time = 0;
  std::uint64_t seq = 0;    ///< insertion order, breaks time ties
  std::uint32_t thread = 0; ///< logical thread (or node endpoint) id
  std::uint32_t kind = 0;   ///< engine-defined discriminator
  std::uint64_t payload = 0;///< engine-defined payload (e.g. message id)
};

class EventQueue {
 public:
  /// Pre-sizes the backing store (e.g. from the machine's thread count) so
  /// steady-state push/pop never reallocates.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Binds the queue to the shard that owns it. From then on every push
  /// and pop must happen on a host thread whose current_shard() matches;
  /// a mismatch aborts deterministically. Call once, from the owning
  /// shard's job, before the queue is used in parallel context.
  void bind_shard(ShardId owner) {
    AAM_CHECK_MSG(owner_ == kNoShard || owner_ == owner,
                  "event queue already bound to a different shard");
    owner_ = owner;
  }
  ShardId bound_shard() const { return owner_; }

  /// Enqueue an event at `time`. Returns the assigned sequence number.
  std::uint64_t push(Time time, std::uint32_t thread, std::uint32_t kind,
                     std::uint64_t payload = 0) {
    AAM_DCHECK(time >= 0);
    check_owner();
    const std::uint64_t seq = next_seq_++;
    const Slot e{key_of(time, seq), thread, kind, payload};
    if (hole_) {
      // Fast path: the previous pop left a hole at the root. Placing the
      // new event straight into it merges pop's deferred sift-down with
      // push's sift-up into one sift-down. In the DES loop nearly every
      // dispatched event pushes a follow-up (kNext -> kCommit -> kRetry /
      // kNext chains), so this is the common case.
      hole_ = false;
      sift_down(0, e);
    } else {
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    }
    return seq;
  }

  bool empty() const { return heap_.size() == (hole_ ? 1u : 0u); }
  std::size_t size() const { return heap_.size() - (hole_ ? 1u : 0u); }

  /// Earliest event time; queue must be non-empty.
  Time peek_time() const {
    AAM_CHECK(!empty());
    if (!hole_) return time_of(heap_[0].key);
    // Root is a hole; the subtrees under it are intact heaps, so the
    // minimum is the smallest of the (up to four) subtree roots.
    const std::size_t end = heap_.size() < 5 ? heap_.size() : 5;
    Key best = heap_[1].key;
    for (std::size_t c = 2; c < end; ++c) {
      if (heap_[c].key < best) best = heap_[c].key;
    }
    return time_of(best);
  }

  /// Remove and return the earliest event. The root slot is left as a
  /// hole for the next push to fill; the heap is repaired lazily.
  Event pop() {
    AAM_CHECK(!empty());
    check_owner();
    if (hole_) repair_hole();
    hole_ = true;
    return to_event(heap_[0]);
  }

  /// Total events ever pushed (diagnostics).
  std::uint64_t pushed() const { return next_seq_; }

  /// Visits every pending event in unspecified order (checkpointing: the
  /// caller sorts by (time, seq) itself). Skips the root hole if present.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    // When hole_ is set, heap_[0] is the logically-removed previous pop.
    for (std::size_t i = hole_ ? 1 : 0; i < heap_.size(); ++i) {
      fn(to_event(heap_[i]));
    }
  }

  /// Drops every pending event. next_seq_ keeps counting up so sequence
  /// numbers pushed after a restore still order after all prior pushes —
  /// only the *relative* order of re-pushed events matters for
  /// reproducibility.
  void clear() {
    check_owner();
    heap_.clear();
    hole_ = false;
  }

 private:
  using Key = unsigned __int128;  ///< time bits << 64 | seq

  /// One heap slot: the Event with (time, seq) folded into one key.
  struct Slot {
    Key key;
    std::uint32_t thread;
    std::uint32_t kind;
    std::uint64_t payload;
  };

  static Key key_of(Time time, std::uint64_t seq) {
    // + 0.0 turns -0.0 into +0.0 (and leaves every other value alone).
    return static_cast<Key>(std::bit_cast<std::uint64_t>(time + 0.0)) << 64 |
           seq;
  }
  static Time time_of(Key key) {
    return std::bit_cast<Time>(static_cast<std::uint64_t>(key >> 64));
  }
  static Event to_event(const Slot& s) {
    return Event{time_of(s.key), static_cast<std::uint64_t>(s.key), s.thread,
                 s.kind, s.payload};
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i, const Slot& e);
  void repair_hole();

  /// Affinity check, armed only once bind_shard() has run: unbound queues
  /// (the legacy single-threaded path) pay a single branch, never the
  /// thread-local read.
  void check_owner() const {
    if (owner_ != kNoShard) {
      AAM_CHECK_MSG(current_shard() == owner_,
                    "event queue touched from a foreign shard");
    }
  }

  std::vector<Slot> heap_;  ///< 4-ary min-heap on key (time, seq)
  bool hole_ = false;  ///< heap_[0] is logically removed (pop deferred)
  std::uint64_t next_seq_ = 0;
  ShardId owner_ = kNoShard;  ///< owning shard once bound (kNoShard = any)
};

/// Truncated exponential backoff with deterministic jitter, used by the
/// RTM retry loop (§4.1) and the ownership protocol (§4.3).
class Backoff {
 public:
  Backoff(Time base, Time max) : base_(base), max_(max) {}

  /// Window for the given retry attempt (0-based), before jitter.
  Time window(int attempt) const;

  /// Jittered wait: uniform in (0, window(attempt)], drawn from `u01`
  /// which must be in [0,1).
  Time wait(int attempt, double u01) const;

 private:
  Time base_;
  Time max_;
};

}  // namespace aam::sim
