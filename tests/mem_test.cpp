#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "mem/footprint.hpp"
#include "mem/sim_heap.hpp"
#include "util/rng.hpp"

namespace aam::mem {
namespace {

// -------------------------------------------------------------- SimHeap

TEST(SimHeap, AllocatesAlignedAndContained) {
  SimHeap heap(1 << 16);
  auto a = heap.alloc<std::uint64_t>(10);
  auto b = heap.alloc<double>(5);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_TRUE(heap.contains(a.data()));
  EXPECT_TRUE(heap.contains(&b[4]));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 8, 0u);
  int local = 0;
  EXPECT_FALSE(heap.contains(&local));
}

TEST(SimHeap, ZeroInitializes) {
  SimHeap heap(1 << 12);
  auto a = heap.alloc<std::uint32_t>(100);
  for (auto v : a) EXPECT_EQ(v, 0u);
}

TEST(SimHeap, LineOfMapsSixtyFourByteBlocks) {
  SimHeap heap(1 << 12);
  auto a = heap.alloc<std::uint8_t>(256);
  const LineId l0 = heap.line_of(&a[0]);
  EXPECT_EQ(heap.line_of(&a[63]) - l0, 0u);
  EXPECT_EQ(heap.line_of(&a[64]) - l0, 1u);
  EXPECT_EQ(heap.line_of(&a[255]) - l0, 3u);
}

TEST(SimHeap, BaseIsLineAligned) {
  SimHeap heap(1 << 12);
  auto a = heap.alloc<std::uint8_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a[0]) % kLineBytes, 0u);
}

TEST(SimHeap, ResetReclaims) {
  SimHeap heap(1 << 10);
  heap.alloc<std::uint64_t>(100);
  const std::size_t used = heap.used_bytes();
  EXPECT_GE(used, 800u);
  heap.reset();
  EXPECT_EQ(heap.used_bytes(), 0u);
  heap.alloc<std::uint64_t>(100);  // fits again
}

TEST(SimHeapDeathTest, AbortsWhenExhausted) {
  SimHeap heap(1 << 10);
  EXPECT_DEATH(heap.alloc<std::uint64_t>(1 << 20), "out of capacity");
}

// ---------------------------------------------------------- StripeTable

TEST(StripeTable, OwnersAndAvailability) {
  StripeTable table(16);
  table.set_available_at(7, 90.0);
  EXPECT_DOUBLE_EQ(table.available_at(7), 90.0);
  EXPECT_EQ(table.owner(5), StripeTable::kNoOwner);
  table.set_owner(5, 2);
  EXPECT_EQ(table.owner(5), 2u);
  table.reset();
  EXPECT_DOUBLE_EQ(table.available_at(7), 0.0);
  EXPECT_EQ(table.owner(5), StripeTable::kNoOwner);
}

// ------------------------------------------------------------- EpochSet

TEST(EpochSet, InsertAndDuplicate) {
  EpochSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.insert(6));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(s.size(), 2u);
}

TEST(EpochSet, ClearIsConstantTimeAndComplete) {
  EpochSet s;
  for (std::uint64_t i = 0; i < 100; ++i) s.insert(i);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(i));
  EXPECT_TRUE(s.insert(3));
}

TEST(EpochSet, GrowsBeyondInitialCapacity) {
  EpochSet s(4);
  for (std::uint64_t i = 0; i < 10000; ++i) EXPECT_TRUE(s.insert(i * 7 + 1));
  EXPECT_EQ(s.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) EXPECT_TRUE(s.contains(i * 7 + 1));
  EXPECT_FALSE(s.contains(3));
}

TEST(EpochSet, SurvivesManyEpochs) {
  EpochSet s;
  for (int epoch = 0; epoch < 1000; ++epoch) {
    EXPECT_TRUE(s.insert(static_cast<std::uint64_t>(epoch)));
    EXPECT_EQ(s.size(), 1u);
    s.clear();
  }
}

TEST(EpochSet, CollidingKeysProbeCorrectly) {
  // Keys a multiple of a large power of two apart land on the same slot
  // for any table size up to that power; every insert past the first must
  // walk the probe chain rather than overwrite.
  EpochSet s(4);
  constexpr std::uint64_t kStride = std::uint64_t{1} << 32;
  for (std::uint64_t i = 1; i <= 64; ++i) EXPECT_TRUE(s.insert(i * kStride));
  EXPECT_EQ(s.size(), 64u);
  for (std::uint64_t i = 1; i <= 64; ++i) {
    EXPECT_TRUE(s.contains(i * kStride)) << i;
    EXPECT_FALSE(s.insert(i * kStride)) << i;
  }
  EXPECT_FALSE(s.contains(65 * kStride));
}

TEST(EpochSet, ContainsWalksProbeChainOnVerifiedCollisions) {
  // The stride test above hopes for collisions; mix64 scrambles strides, so
  // it does not guarantee any. Here we brute-force keys whose *hashed* home
  // slot provably collides under the initial mask, then check contains()
  // distinguishes residents from an absent key that shares their chain.
  constexpr std::size_t kMask = 63;  // initial_capacity 64, no growth below
  const std::size_t home = util::mix64(1) & kMask;
  std::vector<std::uint64_t> keys{1};
  for (std::uint64_t k = 2; keys.size() < 3; ++k) {
    if ((util::mix64(k) & kMask) == home) keys.push_back(k);
  }
  EpochSet s(64);
  EXPECT_TRUE(s.insert(keys[0]));
  EXPECT_TRUE(s.insert(keys[1]));
  // Lookup of the displaced second key must walk past the first.
  EXPECT_TRUE(s.contains(keys[0]));
  EXPECT_TRUE(s.contains(keys[1]));
  // An absent key whose home slot is occupied by a live entry must probe to
  // the chain's end and report absent, not match on epoch alone.
  EXPECT_FALSE(s.contains(keys[2]));
  EXPECT_FALSE(s.insert(keys[0]));
  EXPECT_FALSE(s.insert(keys[1]));
  EXPECT_EQ(s.size(), 2u);

  // Epoch-stale variant: after clear() the same chain's slots hold stale
  // epochs; contains() must treat them as empty, and reinsertion of only
  // the displaced key must not resurrect its chain predecessor.
  s.clear();
  EXPECT_FALSE(s.contains(keys[0]));
  EXPECT_FALSE(s.contains(keys[1]));
  EXPECT_TRUE(s.insert(keys[1]));
  EXPECT_TRUE(s.contains(keys[1]));
  EXPECT_FALSE(s.contains(keys[0]));
}

TEST(EpochSet, StaleSlotsDoNotResurrectAcrossGrowAndClear) {
  // clear() then enough inserts to grow: relocation must not carry
  // previous-epoch keys into the new table.
  EpochSet s(4);
  for (std::uint64_t i = 0; i < 100; ++i) s.insert(i);
  s.clear();
  for (std::uint64_t i = 1000; i < 1100; ++i) EXPECT_TRUE(s.insert(i));
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(i)) << i;
  EXPECT_EQ(s.size(), 100u);
}

// -------------------------------------------------------------- WordMap

TEST(WordMap, LookupInsertAssign) {
  WordMap m;
  std::uint64_t v = 0;
  EXPECT_FALSE(m.lookup(0x1000, v));
  m.insert_or_assign(0x1000, 7);
  EXPECT_TRUE(m.lookup(0x1000, v));
  EXPECT_EQ(v, 7u);
  m.insert_or_assign(0x1000, 9);
  EXPECT_TRUE(m.lookup(0x1000, v));
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(WordMap, IteratesInsertionOrder) {
  WordMap m;
  m.insert_or_assign(0x30, 3);
  m.insert_or_assign(0x10, 1);
  m.insert_or_assign(0x20, 2);
  m.insert_or_assign(0x10, 11);  // reassign must not duplicate
  std::vector<std::pair<std::uintptr_t, std::uint64_t>> seen;
  m.for_each([&](std::uintptr_t k, std::uint64_t val) {
    seen.emplace_back(k, val);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uintptr_t, std::uint64_t>{0x30, 3}));
  EXPECT_EQ(seen[1], (std::pair<std::uintptr_t, std::uint64_t>{0x10, 11}));
  EXPECT_EQ(seen[2], (std::pair<std::uintptr_t, std::uint64_t>{0x20, 2}));
}

TEST(WordMap, GrowsAndClears) {
  WordMap m(4);
  for (std::uintptr_t i = 0; i < 5000; ++i) m.insert_or_assign(i * 8, i);
  EXPECT_EQ(m.size(), 5000u);
  std::uint64_t v = 0;
  EXPECT_TRUE(m.lookup(4096 * 8, v));
  EXPECT_EQ(v, 4096u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.lookup(8, v));
}

TEST(WordMap, InsertionOrderSurvivesGrowth) {
  WordMap m(4);
  // Reverse-ordered addresses so table order != insertion order, far past
  // the initial capacity so the table rehashes several times.
  for (std::uintptr_t i = 0; i < 600; ++i) {
    m.insert_or_assign((600 - i) * 8, i);
  }
  std::uintptr_t expect_key = 600 * 8;
  std::uint64_t expect_val = 0;
  m.for_each([&](std::uintptr_t k, std::uint64_t val) {
    EXPECT_EQ(k, expect_key);
    EXPECT_EQ(val, expect_val);
    expect_key -= 8;
    ++expect_val;
  });
  EXPECT_EQ(expect_val, 600u);
}

TEST(WordMap, ReassignAfterClearDoesNotReviveStaleEntries) {
  WordMap m(4);
  for (std::uintptr_t i = 0; i < 100; ++i) m.insert_or_assign(i * 8, i + 1);
  m.clear();
  m.insert_or_assign(0x18, 42);  // address also present before the clear
  std::uint64_t v = 0;
  EXPECT_TRUE(m.lookup(0x18, v));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(m.size(), 1u);
  std::size_t visited = 0;
  m.for_each([&](std::uintptr_t, std::uint64_t) { ++visited; });
  EXPECT_EQ(visited, 1u);
}

TEST(WordMap, WriteBackSeesLatestValuesAcrossGrowth) {
  // Commit write-back (for_each) reads values stored next to the
  // insertion-order keys; reassignments made before *and* after table
  // growth must both be visible, in first-insertion order.
  WordMap m(4);
  for (std::uintptr_t i = 0; i < 64; ++i) m.insert_or_assign(i * 8, i);
  for (std::uintptr_t i = 0; i < 64; i += 2) {
    m.insert_or_assign(i * 8, 1000 + i);  // reassign half, post-growth
  }
  std::uintptr_t idx = 0;
  m.for_each([&](std::uintptr_t k, std::uint64_t val) {
    EXPECT_EQ(k, idx * 8);
    EXPECT_EQ(val, idx % 2 == 0 ? 1000 + idx : idx);
    ++idx;
  });
  EXPECT_EQ(idx, 64u);
}

// ----------------------------------------------------- FootprintTracker

model::CacheGeometry small_geom() {
  model::CacheGeometry g;
  g.sets = 4;
  g.ways = 2;  // capacity: 8 lines total, 2 per set
  return g;
}

constexpr std::uint64_t line_off(std::uint64_t line) { return line * 64; }

constexpr std::size_t kTableHeapBytes = 64 * 64;  // 64 lines

/// A tracker with a table of its own, already inside its first attempt.
struct Tracked {
  explicit Tracked(std::uint32_t read_capacity_lines,
                   std::uint32_t conflict_shift = 6)
      : table(conflict_shift) {
    table.cover(kTableHeapBytes);
    t.configure(table, small_geom(), read_capacity_lines);
    t.begin_attempt();
  }
  FootprintTable table;
  FootprintTracker t;
};

TEST(FootprintTracker, TracksDistinctLines) {
  Tracked f(100);
  FootprintTracker& t = f.t;
  EXPECT_EQ(t.add_write(line_off(1)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(1)), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.add_read(line_off(2)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_read(line_off(2)), FootprintTracker::Add::kDuplicate);
  // A line already written is not re-tracked as a read.
  EXPECT_EQ(t.add_read(line_off(1)), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_EQ(t.distinct_read_lines(), 1u);
}

TEST(FootprintTracker, AssociativityOverflow) {
  Tracked f(100);
  FootprintTracker& t = f.t;
  // Lines 0, 4, 8 all map to set 0 with 4 sets; 2 ways -> third overflows.
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(4)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, SequentialLinesFillAllSets) {
  Tracked f(100);
  FootprintTracker& t = f.t;
  for (LineId l = 0; l < 8; ++l) {
    EXPECT_EQ(t.add_write(line_off(l)), FootprintTracker::Add::kOk) << l;
  }
  EXPECT_EQ(t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, ReadCapacityIsTotalOnly) {
  Tracked f(5);
  FootprintTracker& t = f.t;
  // Reads have no associativity constraint: 5 lines in the same set are OK.
  for (LineId l = 0; l < 5; ++l) {
    EXPECT_EQ(t.add_read(line_off(l * 4)), FootprintTracker::Add::kOk);
  }
  EXPECT_EQ(t.add_read(line_off(20)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, ResetRestoresCapacity) {
  Tracked f(100);
  FootprintTracker& t = f.t;
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(4)), FootprintTracker::Add::kOk);
  t.begin_attempt();
  EXPECT_EQ(t.distinct_write_lines(), 0u);
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(4)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, FineConflictUnitsWithinOneLine) {
  // BG/Q-style 8-byte conflict units: two words in one line are distinct
  // conflict units but a single capacity line.
  Tracked f(100, /*conflict_shift=*/3);
  FootprintTracker& t = f.t;
  EXPECT_EQ(t.add_write(0), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(8), FootprintTracker::Add::kDuplicate);  // same line
  EXPECT_EQ(t.write_units().size(), 2u);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_TRUE(t.wrote_unit(8));
  EXPECT_FALSE(t.wrote_unit(16));  // same line, unwritten unit
}

TEST(FootprintTracker, CoarseUnitsMatchLines) {
  Tracked f(100, /*conflict_shift=*/6);
  FootprintTracker& t = f.t;
  EXPECT_EQ(t.add_write(0), FootprintTracker::Add::kOk);
  t.add_write(8);   // same 64B line and same unit
  EXPECT_EQ(t.write_units().size(), 1u);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_TRUE(t.wrote_unit(56));
}

TEST(FootprintTracker, SequentialSameLineIsDuplicateWithoutSetGrowth) {
  // Repeats of an access are kDuplicate and must not grow any unit list
  // or line count.
  Tracked f(100, /*conflict_shift=*/6);
  FootprintTracker& t = f.t;
  EXPECT_EQ(t.add_write(line_off(3)), FootprintTracker::Add::kOk);
  for (int i = 0; i < 5; ++i) {
    // Different word offsets within the same line and unit.
    EXPECT_EQ(t.add_write(line_off(3) + 8 * i),
              FootprintTracker::Add::kDuplicate);
  }
  EXPECT_EQ(t.write_units().size(), 1u);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_EQ(t.add_read(line_off(5)), FootprintTracker::Add::kOk);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(t.add_read(line_off(5) + 8 * i),
              FootprintTracker::Add::kDuplicate);
  }
  EXPECT_EQ(t.read_units().size(), 1u);
  EXPECT_EQ(t.distinct_read_lines(), 1u);
}

TEST(FootprintTracker, MemoDoesNotConfuseReadsWithWrites) {
  Tracked f(100);
  FootprintTracker& t = f.t;
  // A read of a line must not short-circuit the first *write* to it: the
  // write still has to enter the write lists and the capacity model.
  EXPECT_EQ(t.add_read(line_off(1)), FootprintTracker::Add::kOk);
  EXPECT_FALSE(t.wrote_unit(line_off(1)));
  EXPECT_EQ(t.add_write(line_off(1)), FootprintTracker::Add::kOk);
  EXPECT_TRUE(t.wrote_unit(line_off(1)));
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_EQ(t.write_units().size(), 1u);
  // And vice versa: after a write, the first read of that line reports
  // kDuplicate (the write covers it).
  EXPECT_EQ(t.add_write(line_off(2)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_read(line_off(2)), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.read_units().size(), 1u);  // only line 1's unit
}

TEST(FootprintTracker, MemoClearedByReset) {
  // A new attempt forgets every tag of the previous one.
  Tracked f(100);
  FootprintTracker& t = f.t;
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kDuplicate);
  t.begin_attempt();
  EXPECT_FALSE(t.wrote_unit(line_off(0)));
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_read(line_off(9)), FootprintTracker::Add::kOk);
  t.begin_attempt();
  EXPECT_EQ(t.add_read(line_off(9)), FootprintTracker::Add::kOk);
}

TEST(FootprintTracker, CapacityAbortCountsIdenticalWithInterleavedRepeats) {
  // Overflow must fire at exactly the same access whether or not repeated
  // same-line touches are interleaved with the distinct ones.
  Tracked plain(100);
  Tracked noisy(100);
  for (LineId l = 0; l < 8; ++l) {
    EXPECT_EQ(plain.t.add_write(line_off(l)), FootprintTracker::Add::kOk);
    EXPECT_EQ(noisy.t.add_write(line_off(l)), FootprintTracker::Add::kOk);
    EXPECT_EQ(noisy.t.add_write(line_off(l)),
              FootprintTracker::Add::kDuplicate);
    EXPECT_EQ(noisy.t.add_write(line_off(l) + 8),
              FootprintTracker::Add::kDuplicate);
  }
  EXPECT_EQ(plain.t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
  EXPECT_EQ(noisy.t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
  EXPECT_EQ(plain.t.distinct_write_lines(), noisy.t.distinct_write_lines());
  EXPECT_EQ(plain.t.write_units().size(), noisy.t.write_units().size());
}

// Reference model of one attempt's footprint: the hashed-set semantics the
// dense table replaces, written with std::set.
class ReferenceFootprint {
 public:
  ReferenceFootprint(model::CacheGeometry geom, std::uint32_t read_capacity,
                     std::uint32_t conflict_shift)
      : geom_(geom), read_capacity_(read_capacity), shift_(conflict_shift) {}

  void begin_attempt() {
    *this = ReferenceFootprint(geom_, read_capacity_, shift_);
  }

  FootprintTracker::Add add_write(std::uint64_t offset) {
    const std::uint64_t unit = offset >> shift_;
    if (written_units_.insert(unit).second) write_units.push_back(unit);
    const LineId line = offset / kLineBytes;
    if (!written_lines_.insert(line).second) {
      return FootprintTracker::Add::kDuplicate;
    }
    if (written_lines_.size() > geom_.capacity_lines() ||
        ++set_count_[line % geom_.sets] > geom_.ways) {
      return FootprintTracker::Add::kOverflow;
    }
    return FootprintTracker::Add::kOk;
  }

  FootprintTracker::Add add_read(std::uint64_t offset) {
    const std::uint64_t unit = offset >> shift_;
    if (!written_units_.contains(unit) && read_units_.insert(unit).second) {
      read_units.push_back(unit);
    }
    const LineId line = offset / kLineBytes;
    if (written_lines_.contains(line) || !read_lines_.insert(line).second) {
      return FootprintTracker::Add::kDuplicate;
    }
    if (read_lines_.size() > read_capacity_) {
      return FootprintTracker::Add::kOverflow;
    }
    return FootprintTracker::Add::kOk;
  }

  bool wrote_unit(std::uint64_t offset) const {
    return written_units_.contains(offset >> shift_);
  }

  void expect_matches(const FootprintTracker& t) const {
    EXPECT_EQ(t.write_units(), write_units);
    EXPECT_EQ(t.read_units(), read_units);
    EXPECT_EQ(t.distinct_write_lines(), written_lines_.size());
    EXPECT_EQ(t.distinct_read_lines(), read_lines_.size());
  }

  std::vector<std::uint64_t> write_units;
  std::vector<std::uint64_t> read_units;

 private:
  model::CacheGeometry geom_;
  std::uint32_t read_capacity_;
  std::uint32_t shift_;
  std::set<std::uint64_t> written_units_;
  std::set<std::uint64_t> read_units_;
  std::set<LineId> written_lines_;
  std::set<LineId> read_lines_;
  std::map<std::size_t, std::uint32_t> set_count_;
};

/// Runs `ops` random adds on `t` and `ref` (offsets over `lines` lines, so
/// repeats, read-after-write and write-after-read are common) and checks
/// every result and the write-buffer filter against the model.
void random_adds(util::Rng& rng, int ops, std::uint64_t lines,
                 FootprintTracker& t, ReferenceFootprint& ref) {
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t offset = rng.next_below(lines * kLineBytes) & ~7ULL;
    if (rng.next_bool(0.4)) {
      ASSERT_EQ(t.add_write(offset), ref.add_write(offset)) << offset;
    } else {
      ASSERT_EQ(t.add_read(offset), ref.add_read(offset)) << offset;
    }
    const std::uint64_t probe = rng.next_below(lines * kLineBytes);
    ASSERT_EQ(t.wrote_unit(probe), ref.wrote_unit(probe)) << probe;
  }
}

TEST(FootprintTracker, MatchesStdSetModelUnderRandomAdds) {
  for (const std::uint32_t shift : {3u, 6u}) {
    SCOPED_TRACE(shift);
    FootprintTable table(shift);
    table.cover(kTableHeapBytes);
    FootprintTracker t;
    // 8 write lines in 4x2 sets and 12 read lines: long attempts overflow.
    t.configure(table, small_geom(), 12);
    ReferenceFootprint ref(small_geom(), 12, shift);
    util::Rng rng(0xf00d + shift);
    std::uint64_t overflows = 0;
    for (int attempt = 0; attempt < 400; ++attempt) {
      t.begin_attempt();
      ref.begin_attempt();
      const int ops = static_cast<int>(rng.next_below(60)) + 1;
      random_adds(rng, ops, /*lines=*/24, t, ref);
      ref.expect_matches(t);
      if (t.distinct_write_lines() > small_geom().capacity_lines() ||
          t.distinct_read_lines() > 12) {
        ++overflows;
      }
    }
    EXPECT_GT(overflows, 0u);  // the capacity paths were exercised
  }
}

TEST(FootprintTracker, TrackersSharingOneTableAlternate) {
  // Two threads' trackers on one machine-wide table: each attempt owns the
  // table in turn, and a tracker's lists outlive the next tracker's body.
  for (const std::uint32_t shift : {3u, 6u}) {
    SCOPED_TRACE(shift);
    FootprintTable table(shift);
    table.cover(kTableHeapBytes);
    FootprintTracker a;
    FootprintTracker b;
    a.configure(table, small_geom(), 12);
    b.configure(table, small_geom(), 12);
    ReferenceFootprint ref_a(small_geom(), 12, shift);
    ReferenceFootprint ref_b(small_geom(), 12, shift);
    util::Rng rng(0xbeef + shift);
    for (int round = 0; round < 200; ++round) {
      a.begin_attempt();
      ref_a.begin_attempt();
      random_adds(rng, 20, /*lines=*/16, a, ref_a);
      b.begin_attempt();
      ref_b.begin_attempt();
      random_adds(rng, 20, /*lines=*/16, b, ref_b);
      // a's footprint survives b's attempt over the same lines.
      ref_a.expect_matches(a);
      ref_b.expect_matches(b);
    }
  }
}

TEST(FootprintTracker, AttemptIdWrapsKeepFirstTouchesExact) {
  // More than two 15-bit id wraps: tags left by an attempt one wrap ago
  // must never read as this attempt's.
  FootprintTable table(/*conflict_shift=*/3);
  table.cover(kTableHeapBytes);
  FootprintTracker t;
  t.configure(table, small_geom(), 12);
  ReferenceFootprint ref(small_geom(), 12, 3);
  util::Rng rng(7);
  const std::uint64_t attempts = 2 * FootprintTable::kAttemptsPerWrap + 100;
  for (std::uint64_t a = 0; a < attempts; ++a) {
    t.begin_attempt();
    ref.begin_attempt();
    random_adds(rng, 3, /*lines=*/8, t, ref);
    ref.expect_matches(t);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(FootprintTracker, CoverGrowthKeepsTheAttemptsTags) {
  FootprintTable table(/*conflict_shift=*/3);
  table.cover(line_off(2));
  FootprintTracker t;
  t.configure(table, small_geom(), 12);
  t.begin_attempt();
  EXPECT_EQ(t.add_write(8), FootprintTracker::Add::kOk);
  table.cover(line_off(16));
  EXPECT_EQ(table.covered_bytes(), line_off(16));
  EXPECT_TRUE(t.wrote_unit(8));
  EXPECT_EQ(t.add_write(8), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.add_read(line_off(15)), FootprintTracker::Add::kOk);
  table.cover(line_off(4));  // never shrinks
  EXPECT_EQ(table.covered_bytes(), line_off(16));
}

TEST(FootprintTrackerDeathTest, StaleTrackerIsCaught) {
  // A tracker whose attempt no longer owns the table (another tracker
  // began since) must not stamp first touches into it.
  FootprintTable table(/*conflict_shift=*/6);
  table.cover(kTableHeapBytes);
  FootprintTracker stale;
  FootprintTracker owner;
  stale.configure(table, small_geom(), 12);
  owner.configure(table, small_geom(), 12);
  stale.begin_attempt();
  EXPECT_EQ(stale.add_read(line_off(1)), FootprintTracker::Add::kOk);
  owner.begin_attempt();
  EXPECT_DEATH(stale.add_read(line_off(2)), "does not own the table");
  EXPECT_DEATH(stale.add_write(line_off(1)), "does not own the table");
}

}  // namespace
}  // namespace aam::mem
