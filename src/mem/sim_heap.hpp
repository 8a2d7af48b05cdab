#pragma once

// Simulated shared memory.
//
// All data manipulated inside the discrete-event simulation must live on a
// SimHeap so that the engine can map any address to a cache line ("stripe")
// index in O(1) and attach per-line metadata: the StripeTable below keeps
// the time until which the line is "owned" by an in-flight atomic, and by
// which thread (for the contention model). The commit stamps that
// optimistic conflict detection validates against are kept per conflict
// unit by htm::DesMachine, not here.
//
// The heap is a bump allocator over one contiguous cache-line-aligned
// region with no free: a benchmark allocates graph + algorithm state once,
// runs, and throws the heap away. The region and the engine's per-line
// tables are anonymous mappings (ZeroMapped) that cost host memory only
// for the pages a run touches, so every heap gets the same generous
// capacity instead of one sized per workload.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace aam::mem {

inline constexpr std::size_t kLineBytes = 64;

/// Dense index of a 64-byte line within a SimHeap.
using LineId = std::uint64_t;

/// Maps `bytes` of zero-filled, private, anonymous memory with no swap
/// reservation (MAP_NORESERVE); aborts naming the size when mmap fails.
void* map_zero_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes);

/// A fixed-size array of `size` zero-valued Ts in its own anonymous
/// mapping. The kernel supplies zero pages on first touch, so an array
/// sized for the whole simulated address space costs host memory only for
/// the entries a run touches, and creating one costs no zeroing pass.
template <typename T>
class ZeroMapped {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ZeroMapped(std::size_t size)
      : data_(static_cast<T*>(map_zero_pages(size * sizeof(T)))),
        size_(size) {}
  ~ZeroMapped() { unmap_pages(data_, size_ * sizeof(T)); }

  ZeroMapped(const ZeroMapped&) = delete;
  ZeroMapped& operator=(const ZeroMapped&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  T* data_;
  std::size_t size_;
};

class SimHeap {
 public:
  /// One bump allocation: label (may be empty) and the covered offsets.
  /// Checkers use the registry to turn a raw heap offset into "which array
  /// was corrupted"; see describe().
  struct AllocRecord {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::string label;
  };

  /// Address space every heap gets by default. It is a cap, not a cost:
  /// host memory follows used_bytes(), not the capacity.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 32;

  /// Creates a heap of `capacity` bytes (rounded up to a line multiple).
  explicit SimHeap(std::size_t capacity = kDefaultCapacity);

  SimHeap(const SimHeap&) = delete;
  SimHeap& operator=(const SimHeap&) = delete;

  /// Allocates `count` default-initialized objects of trivially-copyable
  /// type T, aligned to max(alignof(T), 8). Aborts when out of capacity —
  /// a simulation with silently relocated data would be meaningless.
  /// `label` names the allocation in checker/diagnostic output.
  template <typename T>
  std::span<T> alloc(std::size_t count, std::string_view label = {}) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "simulated memory holds trivially-copyable data only");
    const std::size_t align = alignof(T) < 8 ? 8 : alignof(T);
    std::byte* p = raw_alloc(count * sizeof(T), align, label);
    T* typed = reinterpret_cast<T*>(p);
    for (std::size_t i = 0; i < count; ++i) typed[i] = T{};
    return {typed, count};
  }

  /// Allocates one object, forwarding an initial value.
  template <typename T>
  T* alloc_one(const T& init = T{}, std::string_view label = {}) {
    auto s = alloc<T>(1, label);
    s[0] = init;
    return s.data();
  }

  /// Allocates one object alone on its own cache line (no false sharing);
  /// used for global synchronization words such as the elision lock.
  template <typename T>
  T* alloc_isolated(const T& init = T{}, std::string_view label = {}) {
    static_assert(sizeof(T) <= kLineBytes);
    std::byte* p = raw_alloc(kLineBytes, kLineBytes, label);
    T* typed = reinterpret_cast<T*>(p);
    *typed = init;
    return typed;
  }

  /// True if `p` points into this heap.
  bool contains(const void* p) const {
    const std::byte* b = static_cast<const std::byte*>(p);
    return b >= base() && b < base() + used_;
  }

  /// Maps an address to its line index. The address must be on-heap.
  LineId line_of(const void* p) const {
    AAM_DCHECK(contains(p));
    return static_cast<LineId>(
        (static_cast<const std::byte*>(p) - base()) / kLineBytes);
  }

  /// Byte offset of an on-heap address from the heap base.
  std::uint64_t offset_of(const void* p) const {
    AAM_DCHECK(contains(p));
    return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) -
                                      base());
  }

  /// Host address of an allocated heap offset (checker/tooling access).
  std::byte* addr_of(std::uint64_t offset) {
    AAM_DCHECK(offset < used_);
    return base() + offset;
  }
  const std::byte* addr_of(std::uint64_t offset) const {
    AAM_DCHECK(offset < used_);
    return base() + offset;
  }

  /// The allocation covering `offset`, or nullptr for a gap/out-of-range
  /// offset (alignment padding between allocations is not covered).
  const AllocRecord* find_alloc(std::uint64_t offset) const;

  /// Human-readable owner of `offset`: "label+0x<delta>" (or "alloc#<n>"
  /// when the allocation was not labelled); "?" for uncovered offsets.
  std::string describe(std::uint64_t offset) const;

  /// All allocations in address order.
  std::span<const AllocRecord> allocations() const { return allocs_; }

  std::size_t capacity_bytes() const { return storage_.size(); }
  std::size_t used_bytes() const { return used_; }
  std::size_t num_lines() const { return storage_.size() / kLineBytes; }

  /// Checkpoint support: the durable contents are exactly the first
  /// used_bytes() of the region. The allocation registry is *not* part of
  /// the snapshot — recovery restores into the same process with the same
  /// allocation layout, so only the bytes change.
  std::span<const std::byte> raw_bytes() const { return {base(), used_}; }

  /// Overwrites the first `bytes.size()` heap bytes from a snapshot. The
  /// layout must match: restoring into a heap whose bump pointer moved
  /// since the checkpoint would scramble allocations, so that aborts.
  void restore_raw_bytes(std::span<const std::byte> bytes) {
    AAM_CHECK_MSG(bytes.size() == used_,
                  "heap snapshot size does not match current layout");
    std::copy(bytes.begin(), bytes.end(), base());
  }

 private:
  std::byte* raw_alloc(std::size_t bytes, std::size_t align,
                       std::string_view label);
  /// Page-aligned, hence line-aligned.
  std::byte* base() const { return storage_.data(); }

  ZeroMapped<std::byte> storage_;
  std::size_t used_ = 0;
  std::vector<AllocRecord> allocs_;
};

/// Observes committed mutations of simulated memory. check::Checker (races
/// mode) registers one on a DesMachine: every write that becomes visible
/// through a modelled channel — plain ThreadCtx store, atomic CAS/ACC,
/// transactional commit write-back — is reported here, so the checker can
/// flag heap mutations that bypassed all of them (raw pointer writes that
/// no mechanism synchronizes or accounts for).
class WriteObserver {
 public:
  virtual ~WriteObserver() = default;

  /// A legitimate write of `len` bytes at heap offset `offset` became
  /// visible in committed memory.
  virtual void on_legitimate_write(std::uint64_t offset,
                                   std::uint32_t len) = 0;

  /// The machine is (re)entering its event loop, or resuming it after a
  /// quiescence hook injected more work. Host-side writes made since the
  /// previous run or round (initialisation, inter-phase fixups, next-round
  /// resets) are single-threaded and therefore sanctioned wholesale.
  virtual void on_run_start() = 0;

  /// Every thread is parked and no event is pending, and the machine has
  /// not yet consulted its quiescence hook: the round's writes are all
  /// made, and any of them not reported through on_legitimate_write()
  /// escaped. Also called when a crash-stop is about to restore a
  /// checkpoint over the heap, which is followed by on_run_start() once
  /// the restored bytes are in place.
  virtual void on_quiescence() = 0;
};

/// Per-line contention metadata for the whole heap (the atomics model).
/// Conflict *stamps* live in the engine at the HTM variant's detection
/// granularity; see DesMachine.
class StripeTable {
 public:
  inline static constexpr std::uint32_t kNoOwner =
      static_cast<std::uint32_t>(-1);

  explicit StripeTable(std::size_t num_lines)
      : avail_(num_lines), owner_(num_lines) {}

  /// Time until which the line is held by an in-flight atomic; the next
  /// atomic on the line from *another* thread starts no earlier than this
  /// (cache-line ping-pong).
  sim::Time available_at(LineId line) const { return avail_[line]; }
  void set_available_at(LineId line, sim::Time t) { avail_[line] = t; }

  /// Thread currently holding the line in its cache (atomics contention
  /// model); a thread re-accessing its own line pays no transfer.
  std::uint32_t owner(LineId line) const { return owner_[line] - 1; }
  void set_owner(LineId line, std::uint32_t tid) { owner_[line] = tid + 1; }

  std::size_t num_lines() const { return avail_.size(); }

 private:
  ZeroMapped<sim::Time> avail_;
  /// Owner tid + 1, so an untouched (zero) entry reads kNoOwner.
  ZeroMapped<std::uint32_t> owner_;
};

}  // namespace aam::mem
