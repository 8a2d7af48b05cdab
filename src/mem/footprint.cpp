#include "mem/footprint.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace aam::mem {

namespace {
std::size_t round_up_pow2(std::size_t x) {
  std::size_t p = 16;
  while (p < x) p <<= 1;
  return p;
}
}  // namespace

// ---------------------------------------------------------------- EpochSet

EpochSet::EpochSet(std::size_t initial_capacity)
    : slots_(round_up_pow2(initial_capacity * 2)),
      mask_(slots_.size() - 1) {}

void EpochSet::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  const std::uint64_t old_epoch = epoch_;
  ++epoch_;
  size_ = 0;
  for (const Slot& s : old) {
    if (s.epoch == old_epoch) insert(s.key);
  }
}

// ----------------------------------------------------------------- WordMap

WordMap::WordMap(std::size_t initial_capacity)
    : slots_(round_up_pow2(initial_capacity * 2)),
      mask_(slots_.size() - 1) {}

void WordMap::grow() {
  // Entries (keys and values) are authoritative; only the index slots need
  // rebuilding, preserving insertion order untouched.
  slots_.assign(slots_.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  ++epoch_;
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
    std::size_t i = util::mix64(entries_[idx].key) & mask_;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
    slots_[i] = Slot{idx, epoch_};
  }
}

// --------------------------------------------------------- FootprintTable

void FootprintTable::cover(std::size_t heap_bytes) {
  if (heap_bytes <= covered_bytes_) return;
  covered_bytes_ = heap_bytes;
  unit_tags_.resize((heap_bytes >> conflict_shift_) + 1, 0);
  line_tags_.resize(heap_bytes / kLineBytes + 1, 0);
}

std::uint64_t FootprintTable::begin_attempt() {
  const std::uint64_t id = attempt_ % kAttemptsPerWrap + 1;
  if (id == 1 && attempt_ != 0) {
    // The 15-bit id wrapped: tags of old attempts would alias new ones.
    std::fill(unit_tags_.begin(), unit_tags_.end(), 0);
    std::fill(line_tags_.begin(), line_tags_.end(), 0);
  }
  read_tag_ = static_cast<std::uint16_t>(id << 1);
  return ++attempt_;
}

// ------------------------------------------------------- FootprintTracker

void FootprintTracker::configure(FootprintTable& table,
                                 const model::CacheGeometry& write_geometry,
                                 std::uint32_t read_capacity_lines) {
  table_ = &table;
  shift_ = table.conflict_shift();
  attempt_ = 0;
  read_tag_ = 0;
  write_geom_ = write_geometry;
  read_capacity_lines_ = read_capacity_lines;
  set_count_.assign(write_geom_.sets, 0);
  set_epoch_.assign(write_geom_.sets, 0);
  epoch_ = 1;
  write_units_.clear();
  read_units_.clear();
  write_lines_ = 0;
  read_lines_ = 0;
}

void FootprintTracker::begin_attempt() {
  attempt_ = table_->begin_attempt();
  read_tag_ = table_->read_tag_;
  write_units_.clear();
  read_units_.clear();
  write_lines_ = 0;
  read_lines_ = 0;
  ++epoch_;
}

FootprintTracker::Add FootprintTracker::count_write_line(LineId line) {
  ++write_lines_;
  if (write_lines_ > write_geom_.capacity_lines()) {
    return Add::kOverflow;
  }
  // Physical set index: lines are heap-offset indices, so modulo models a
  // physically-indexed cache.
  const std::size_t set = line % write_geom_.sets;
  if (set_epoch_[set] != epoch_) {
    set_epoch_[set] = epoch_;
    set_count_[set] = 0;
  }
  if (++set_count_[set] > write_geom_.ways) {
    return Add::kOverflow;  // associativity eviction of speculative state
  }
  return Add::kOk;
}

}  // namespace aam::mem
