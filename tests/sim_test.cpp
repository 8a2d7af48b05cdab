#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace aam::sim {
namespace {

std::uint64_t payload_of(std::uint32_t thread) {
  return 0x9e3779b97f4a7c15ULL * (thread + 1);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30.0, 0, 0);
  q.push(10.0, 1, 0);
  q.push(20.0, 2, 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 10.0);
  EXPECT_EQ(q.pop().thread, 1u);
  EXPECT_EQ(q.pop().thread, 2u);
  EXPECT_EQ(q.pop().thread, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 100; ++i) q.push(5.0, i, 0);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.thread, i);
    EXPECT_EQ(e.seq, i);
  }
}

TEST(EventQueue, CarriesKindAndPayload) {
  EventQueue q;
  q.push(1.0, 3, 7, 0xdeadbeef);
  const Event e = q.pop();
  EXPECT_EQ(e.kind, 7u);
  EXPECT_EQ(e.payload, 0xdeadbeefu);
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  q.push(10.0, 0, 0);
  q.push(5.0, 1, 0);
  EXPECT_EQ(q.pop().thread, 1u);
  q.push(7.0, 2, 0);
  q.push(20.0, 3, 0);
  EXPECT_EQ(q.pop().thread, 2u);
  EXPECT_EQ(q.pop().thread, 0u);
  EXPECT_EQ(q.pop().thread, 3u);
}

TEST(EventQueue, SizePeekAndEmptyCorrectWhileHoleOutstanding) {
  // pop() defers heap repair (hole at the root) until the next operation;
  // the accessors must see through the hole.
  EventQueue q;
  q.push(10.0, 0, 0);
  q.push(5.0, 1, 0);
  q.push(7.0, 2, 0);
  EXPECT_EQ(q.pop().thread, 1u);  // leaves the hole
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.peek_time(), 7.0);
  q.push(6.0, 3, 0);  // fills the hole
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 6.0);
  EXPECT_EQ(q.pop().thread, 3u);
  EXPECT_EQ(q.pop().thread, 2u);
  EXPECT_EQ(q.pop().thread, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DrainToEmptyAndRefillAcrossHole) {
  EventQueue q;
  q.push(1.0, 7, 0);
  EXPECT_EQ(q.pop().thread, 7u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(2.0, 8, 0);  // push into the single-slot hole
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 2.0);
  EXPECT_EQ(q.pop().thread, 8u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomizedPopsAlwaysReturnTheMinimum) {
  // Deterministic pseudo-random push/pop mix with heavy time-tie density,
  // exercising the hole fast path on every interleaving. Each pop must
  // return exactly the (time, seq)-minimum of the reference set — i.e.
  // ordering is unchanged by the heap-layout optimizations.
  EventQueue q;
  q.reserve(64);
  std::vector<Event> live;  // reference queue contents
  std::uint64_t lcg = 12345;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  auto min_it = [&live]() {
    return std::min_element(live.begin(), live.end(),
                            [](const Event& a, const Event& b) {
                              if (a.time != b.time) return a.time < b.time;
                              return a.seq < b.seq;
                            });
  };
  auto check_pop = [&]() {
    const auto it = min_it();
    EXPECT_DOUBLE_EQ(q.peek_time(), it->time);
    const Event e = q.pop();
    EXPECT_DOUBLE_EQ(e.time, it->time);
    EXPECT_EQ(e.seq, it->seq);
    EXPECT_EQ(e.thread, it->thread);
    live.erase(it);
    EXPECT_EQ(q.size(), live.size());
  };
  for (int i = 0; i < 2000; ++i) {
    if (next() % 3 != 0 || q.empty()) {
      const Time t = static_cast<Time>(next() % 16);  // heavy tie density
      const std::uint64_t seq = q.push(t, static_cast<std::uint32_t>(i), 0);
      live.push_back(Event{t, seq, static_cast<std::uint32_t>(i), 0, 0});
    } else {
      check_pop();
    }
  }
  while (!q.empty()) check_pop();
  EXPECT_TRUE(live.empty());
}

TEST(EventQueue, PeekUnderRootHoleScansEveryChild) {
  // The heap is 4-ary: after a pop the root is a hole and the minimum is
  // the smallest of the root's 1..4 children. Pushing the root event first
  // and then descending times puts the remaining minimum in the last
  // child slot, so a scan that stops early reads a larger time.
  for (int children = 1; children <= 4; ++children) {
    EventQueue q;
    q.push(0.0, 99, 0);
    for (int c = 0; c < children; ++c) {
      q.push(static_cast<Time>(10 * (children - c)),
             static_cast<std::uint32_t>(c), 0);
    }
    EXPECT_EQ(q.pop().thread, 99u);  // leaves the hole
    EXPECT_EQ(q.size(), static_cast<std::size_t>(children));
    EXPECT_DOUBLE_EQ(q.peek_time(), 10.0) << children << " children";
    const Event e = q.pop();
    EXPECT_DOUBLE_EQ(e.time, 10.0) << children << " children";
    EXPECT_EQ(e.thread, static_cast<std::uint32_t>(children - 1));
  }
}

TEST(EventQueue, SignedZeroTimesTieAndPopInSeqOrder) {
  // -0.0 == +0.0 as times, so events at either zero are one instant and
  // must pop in insertion order (the key folds -0.0 onto +0.0), ahead of
  // the smallest positive time.
  EventQueue q;
  q.push(std::numeric_limits<Time>::denorm_min(), 9, 0);
  q.push(-0.0, 0, 0);
  q.push(0.0, 1, 0);
  q.push(-0.0, 2, 0);
  q.push(0.0, 3, 0);
  EXPECT_EQ(q.peek_time(), 0.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.thread, i);
    EXPECT_EQ(e.time, 0.0);
  }
  EXPECT_EQ(q.pop().thread, 9u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DeepHeapRandomMixMatchesReferenceMinimum) {
  // Keeps at least 300 events pending — at least four full levels of a
  // 4-ary heap (1 + 4 + 16 + 64 + 256 > 300) — under a push/pop mix with
  // heavy time ties, so sifts cross partial and full child families.
  EventQueue q;
  std::vector<Event> live;
  util::Rng rng(17);
  const auto push = [&](std::uint32_t thread) {
    const Time t = static_cast<Time>(rng.next_below(8));
    const std::uint64_t seq = q.push(t, thread, 0, payload_of(thread));
    live.push_back(Event{t, seq, thread, 0, payload_of(thread)});
  };
  const auto check_pop = [&] {
    const auto it = std::min_element(
        live.begin(), live.end(), [](const Event& a, const Event& b) {
          if (a.time != b.time) return a.time < b.time;
          return a.seq < b.seq;
        });
    ASSERT_EQ(q.peek_time(), it->time);
    const Event e = q.pop();
    ASSERT_EQ(e.time, it->time);
    ASSERT_EQ(e.seq, it->seq);
    ASSERT_EQ(e.thread, it->thread);
    ASSERT_EQ(e.payload, it->payload);
    live.erase(it);
  };
  std::uint32_t thread = 0;
  while (live.size() < 300) push(thread++);
  for (int i = 0; i < 20000; ++i) {
    if (live.size() <= 300 || rng.next_below(2) == 0) {
      push(thread++);
    } else {
      check_pop();
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_GE(live.size(), 300u);
  }
  while (!q.empty()) check_pop();
  EXPECT_TRUE(live.empty());
}

TEST(Backoff, WindowsDoubleAndCap) {
  Backoff b(100.0, 800.0);
  EXPECT_DOUBLE_EQ(b.window(0), 100.0);
  EXPECT_DOUBLE_EQ(b.window(1), 200.0);
  EXPECT_DOUBLE_EQ(b.window(2), 400.0);
  EXPECT_DOUBLE_EQ(b.window(3), 800.0);
  EXPECT_DOUBLE_EQ(b.window(10), 800.0);
}

TEST(Backoff, WaitWithinWindowAndNonZero) {
  Backoff b(100.0, 800.0);
  for (double u : {0.0, 0.25, 0.5, 0.9999}) {
    const Time w = b.wait(2, u);
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 400.0);
  }
}

}  // namespace
}  // namespace aam::sim
