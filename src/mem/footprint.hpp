#pragma once

// Transaction-local footprint data structures.
//
// A speculative transaction rebuilds its footprint state from scratch on
// every (re)execution, so each structure clears in O(1):
//
//  * WordMap   — a hashed address -> 8-byte value map in insertion order:
//                the checker recorder's pre-images and overlay.
//  * EpochSet  — a hashed u64 set: the checker's per-batch word sets.
//  * FootprintTable / FootprintTracker — the distinct conflict units and
//                cache lines of one HTM attempt, deduplicated through a
//                machine-wide dense tag table, with capacity overflows
//                (the "buffer overflow" abort class of §5). The table also
//                holds the write index of the running body: per heap word,
//                the word's position in that attempt's write log
//                (htm::Txn), so the transactional store and load paths
//                find a buffered word by array index, not by hashing.
//
// The accessor hot paths (EpochSet/WordMap probes, FootprintTracker adds)
// are defined inline here: they run several times per modelled memory
// access, and the cross-TU call overhead is measurable in end-to-end
// throughput. Growth/rehash and first-touch cold paths stay in the .cpp,
// which keeps the inline parts small enough to inline into callers.

#include <cstdint>
#include <vector>

#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::mem {

/// Open-addressing u64 set with epoch-stamped slots: clear() is O(1).
class EpochSet {
 public:
  explicit EpochSet(std::size_t initial_capacity = 64);

  void clear() {
    ++epoch_;
    size_ = 0;
  }

  /// Inserts `key`; returns true when the key was not present.
  bool insert(std::uint64_t key) {
    if (size_ * 10 >= slots_.size() * 7) grow();
    const std::size_t i = probe(key);
    if (slots_[i].epoch == epoch_) return false;  // already present
    slots_[i] = Slot{key, epoch_};
    ++size_;
    return true;
  }

  /// Present iff the probe chain starting at the key's home slot reaches a
  /// current-epoch slot holding the key before an empty (stale-epoch) slot.
  /// probe() only terminates on key match or stale epoch, so checking the
  /// epoch of the landing slot is sufficient: a colliding resident cannot
  /// cause a false positive because probe() walks past it.
  bool contains(std::uint64_t key) const {
    return slots_[probe(key)].epoch == epoch_;
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;
  };
  void grow();
  std::size_t probe(std::uint64_t key) const {
    std::size_t i = util::mix64(key) & mask_;
    while (slots_[i].epoch == epoch_ && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Open-addressing address -> 64-bit-value map with epoch clearing. Values
/// live in the insertion-order entry list itself, so commit iteration is a
/// linear scan with no hashing; the hash slots only map addresses to entry
/// indices for lookup/update.
class WordMap {
 public:
  explicit WordMap(std::size_t initial_capacity = 64);

  void clear() {
    ++epoch_;
    entries_.clear();
  }

  /// Looks up the buffered value for an 8-byte-aligned word address.
  bool lookup(std::uintptr_t addr, std::uint64_t& value) const {
    std::size_t i = util::mix64(addr) & mask_;
    while (slots_[i].epoch == epoch_) {
      const Entry& e = entries_[slots_[i].index];
      if (e.key == addr) {
        value = e.value;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  void insert_or_assign(std::uintptr_t addr, std::uint64_t value) {
    if (entries_.size() * 10 >= slots_.size() * 7) grow();
    std::size_t i = util::mix64(addr) & mask_;
    while (slots_[i].epoch == epoch_) {
      Entry& e = entries_[slots_[i].index];
      if (e.key == addr) {
        e.value = value;
        return;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{static_cast<std::uint32_t>(entries_.size()), epoch_};
    entries_.push_back(Entry{addr, value});
  }

  std::size_t size() const { return entries_.size(); }

  /// Iterates entries in insertion order (commit write-back order).
  /// No per-key re-probing: the value is stored next to its key.
  template <typename F>
  void for_each(F&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.key, e.value);
    }
  }

 private:
  struct Entry {
    std::uintptr_t key = 0;
    std::uint64_t value = 0;
  };
  struct Slot {
    std::uint32_t index = 0;  ///< into entries_
    std::uint64_t epoch = 0;
  };
  void grow();

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::uint64_t epoch_ = 1;
  std::size_t mask_ = 0;
};

/// Machine-wide first-touch table of transactional footprints: one 16-bit
/// tag per conflict unit and one per 64-byte line of a heap prefix, stamped
/// by the attempt that touched it. A tag packs the attempt's id (upper 15
/// bits) with a written bit (bit 0), so "has this attempt read / written
/// this unit?" is one array load and compare, with no hashing.
///
/// Sharing one table between all of a machine's trackers is sound only
/// because transaction bodies run one at a time: the owner of the table is
/// the attempt that called FootprintTracker::begin_attempt() last, and a
/// tracker that records a first touch for any other attempt aborts the
/// process. Everything here is scratch of the running body: the tags, the
/// write geometry's per-set occupancy (stamped by attempt serial) and the
/// write index (word_slots()). The tags and the index cover only the heap
/// prefix passed to cover() (a machine that never starts a transaction
/// allocates none); the tags are zeroed when the id wraps.
class FootprintTable {
 public:
  /// `conflict_shift` is log2 of the conflict-detection granularity.
  explicit FootprintTable(std::uint32_t conflict_shift)
      : conflict_shift_(conflict_shift) {}

  FootprintTable(const FootprintTable&) = delete;
  FootprintTable& operator=(const FootprintTable&) = delete;

  /// Attempts between two id wraps (each wrap zeroes every tag).
  static constexpr std::uint64_t kAttemptsPerWrap = 0x7fff;

  /// Extends the tags and the write index to heap offsets [0, bytes);
  /// never shrinks. Invalidates word_slots().
  void cover(std::size_t bytes);
  /// Trackers may add offsets below this.
  std::size_t covered_bytes() const { return covered_bytes_; }

  std::uint32_t conflict_shift() const { return conflict_shift_; }

  /// The write index: one slot per 8-byte word of the covered prefix,
  /// indexed by heap offset >> 3. The running body keeps at the slot of
  /// each word it wrote that word's position in its write log. Every other
  /// slot holds zero or a leftover of an earlier body, so a reader must
  /// confirm a hit against the log entry's address (see htm::Txn).
  std::uint32_t* word_slots() { return word_slots_.data(); }

 private:
  friend class FootprintTracker;

  /// Makes a new attempt the owner; returns its serial number.
  std::uint64_t begin_attempt();
  /// Sizes the per-set occupancy for a write geometry of `sets` sets.
  void fit_sets(std::uint32_t sets);

  std::uint32_t conflict_shift_;
  std::size_t covered_bytes_ = 0;
  std::vector<std::uint16_t> unit_tags_;
  std::vector<std::uint16_t> line_tags_;
  std::vector<std::uint32_t> word_slots_;
  std::uint64_t attempt_ = 0;  ///< serial of the owning attempt (0: none)
  std::uint16_t read_tag_ = 0;  ///< the owner's tag; read_tag_ | 1 = written
  /// Written lines per write-geometry set; a count is the owner's only
  /// when its set_serial_ entry equals the owner's serial.
  std::vector<std::uint32_t> set_count_;
  std::vector<std::uint64_t> set_serial_;
};

/// The footprint of one transactional attempt: the distinct conflict units
/// it read and wrote (commit validation and stamp bumping) and its distinct
/// cache lines mapped into the HTM variant's cache geometry (capacity
/// aborts, the "buffer overflow" class of §5). First-touch dedup lives in
/// a FootprintTable shared with the machine's other trackers, and so does
/// the per-set occupancy; the tracker keeps what outlives the body.
class FootprintTracker {
 public:
  FootprintTracker() = default;

  /// Must be called before use and whenever the HTM variant changes.
  /// `table` must outlive the tracker and cover every offset it adds.
  void configure(FootprintTable& table,
                 const model::CacheGeometry& write_geometry,
                 std::uint32_t read_capacity_lines);

  /// Starts a new attempt: forgets the previous footprint and takes
  /// ownership of the table. Every add must come between this call and
  /// the next begin_attempt() on any tracker sharing the table.
  void begin_attempt();

  enum class Add : std::uint8_t { kOk, kOverflow, kDuplicate };

  /// Records a write at heap offset `offset`; kOverflow = capacity abort.
  /// Inline part: a unit and a line this attempt already wrote cost two
  /// tag compares; any first touch takes the outlined first_write().
  Add add_write(std::uint64_t offset) {
    AAM_DCHECK(attempt_ != 0);  // configure() and begin_attempt() were called
    AAM_DCHECK(offset < table_->covered_bytes());
    const std::uint16_t written = read_tag_ | 1;
    if (table_->unit_tags_[offset >> shift_] == written &&
        table_->line_tags_[offset / kLineBytes] == written) [[likely]] {
      return Add::kDuplicate;
    }
    return first_write(offset);
  }

  /// Records a read (no associativity constraint, total budget only). A
  /// unit or line already written by this attempt is not re-tracked.
  /// Inline part as in add_write(); first touches take first_read().
  Add add_read(std::uint64_t offset) {
    AAM_DCHECK(attempt_ != 0);
    AAM_DCHECK(offset < table_->covered_bytes());
    const std::uint16_t seen = read_tag_ | 1;
    if ((table_->unit_tags_[offset >> shift_] | 1) == seen &&
        (table_->line_tags_[offset / kLineBytes] | 1) == seen) [[likely]] {
      return Add::kDuplicate;
    }
    return first_read(offset);
  }

  /// True when this attempt wrote the conflict unit containing `offset`;
  /// only then can the attempt's write buffer hold a word there.
  bool wrote_unit(std::uint64_t offset) const {
    return table_->unit_tags_[offset >> shift_] == (read_tag_ | 1);
  }

  /// Distinct conflict units written / read (validation + stamp bumping).
  const std::vector<std::uint64_t>& write_units() const {
    return write_units_;
  }
  const std::vector<std::uint64_t>& read_units() const { return read_units_; }
  /// Distinct cache lines (the capacity/eviction footprint).
  std::size_t distinct_write_lines() const { return write_lines_; }
  std::size_t distinct_read_lines() const { return read_lines_; }

 private:
  /// The interleaving guard: a first touch must come from the attempt
  /// that owns the table, or it would stamp another body's footprint.
  void check_owner() const {
    AAM_CHECK_MSG(attempt_ == table_->attempt_,
                  "footprint add from an attempt that does not own the table");
  }
  // Cold halves of add_write()/add_read(): stamp the first-touched unit
  // and line, list the unit, count the line against the capacity.
  Add first_write(std::uint64_t offset);
  Add first_read(std::uint64_t offset);

  FootprintTable* table_ = nullptr;
  std::uint32_t shift_ = 6;  ///< table_->conflict_shift(), kept hot
  std::uint64_t attempt_ = 0;
  std::uint16_t read_tag_ = 0;
  model::CacheGeometry write_geom_;
  std::uint32_t read_capacity_lines_ = 0;

  std::vector<std::uint64_t> write_units_;
  std::vector<std::uint64_t> read_units_;
  std::size_t write_lines_ = 0;
  std::size_t read_lines_ = 0;
};

}  // namespace aam::mem
