// Parallel DES backend: shard identity, shard-owned event queues, and the
// host worker pool (ShardRunner).
//
// The determinism tests are the backend's contract: simulated results —
// traces, clocks, event counts — must be bit-identical at every
// host-thread count, because parallelism only changes which host thread
// executes an independent shard, never the simulated schedule.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/host_pool.hpp"
#include "sim/shard.hpp"
#include "util/rng.hpp"

namespace aam {
namespace {

// ---------------------------------------------------------------------------
// Host-thread count parser (--host-threads and AAM_HOST_THREADS)
// ---------------------------------------------------------------------------

TEST(HostThreads, ParserAcceptsCountsAndMaxRejectsTheRest) {
  EXPECT_EQ(sim::parse_host_threads("4"), 4);
  EXPECT_EQ(sim::parse_host_threads("1024"), 1024);
  EXPECT_EQ(sim::parse_host_threads("max"), sim::max_host_threads());
  for (const char* bad : {"4x", "abc", "0", "-1", "1025", ""}) {
    EXPECT_EQ(sim::parse_host_threads(bad), std::nullopt) << '"' << bad << '"';
  }
}

// ---------------------------------------------------------------------------
// Shard identity
// ---------------------------------------------------------------------------

TEST(Shard, GuardInstallsAndRestoresIdentity) {
  EXPECT_EQ(sim::current_shard(), sim::kNoShard);
  {
    sim::ShardGuard outer(3);
    EXPECT_EQ(sim::current_shard(), 3u);
    {
      sim::ShardGuard inner(7);
      EXPECT_EQ(sim::current_shard(), 7u);
    }
    EXPECT_EQ(sim::current_shard(), 3u);
  }
  EXPECT_EQ(sim::current_shard(), sim::kNoShard);
}

// ---------------------------------------------------------------------------
// EventQueue shard ownership
// ---------------------------------------------------------------------------

TEST(EventQueueShard, UnboundQueueWorksFromAnyContext) {
  sim::EventQueue q;
  q.push(1.0, 0, 0);
  {
    sim::ShardGuard guard(5);
    q.push(2.0, 0, 0);
    EXPECT_EQ(q.pop().time, 1.0);
  }
  EXPECT_EQ(q.pop().time, 2.0);
}

TEST(EventQueueShard, BoundQueueAcceptsOwnerAccess) {
  sim::EventQueue q;
  q.bind_shard(4);
  EXPECT_EQ(q.bound_shard(), 4u);
  sim::ShardGuard guard(4);
  q.push(1.0, 0, 0);
  EXPECT_EQ(q.pop().seq, 0u);
  // Re-binding to the same shard is idempotent.
  q.bind_shard(4);
}

TEST(EventQueueShardDeathTest, ForeignPushDies) {
  sim::EventQueue q;
  q.bind_shard(2);
  sim::ShardGuard guard(3);
  EXPECT_DEATH(q.push(1.0, 0, 0), "foreign shard");
}

TEST(EventQueueShardDeathTest, ForeignPopDies) {
  sim::EventQueue q;
  {
    sim::ShardGuard guard(2);
    q.bind_shard(2);
    q.push(1.0, 0, 0);
  }
  sim::ShardGuard guard(9);
  EXPECT_DEATH(q.pop(), "foreign shard");
}

TEST(EventQueueShardDeathTest, RebindToDifferentShardDies) {
  sim::EventQueue q;
  q.bind_shard(1);
  EXPECT_DEATH(q.bind_shard(2), "already bound");
}

// ---------------------------------------------------------------------------
// ShardRunner
// ---------------------------------------------------------------------------

TEST(ShardRunner, RunsEveryJobExactlyOnceUnderItsIdentity) {
  for (int workers : {1, 2, 4, 7}) {
    const std::size_t n = 23;
    std::vector<std::atomic<int>> hits(n);
    std::vector<sim::ShardId> observed(n, sim::kNoShard);
    sim::ShardRunner runner(workers);
    EXPECT_EQ(runner.workers(), workers);
    runner.run(n, [&](sim::ShardId id) {
      hits[id].fetch_add(1);
      observed[id] = sim::current_shard();
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " job " << i;
      EXPECT_EQ(observed[i], static_cast<sim::ShardId>(i));
    }
  }
}

TEST(ShardRunner, SlotOrderedResultsIdenticalAcrossWorkerCounts) {
  // The canonical usage pattern: each job derives data purely from its
  // shard id (here a forked RNG stream) and writes slot [id].
  auto sweep = [](int workers) {
    std::vector<std::uint64_t> slots(64);
    sim::ShardRunner runner(workers);
    runner.run(slots.size(), [&](sim::ShardId id) {
      util::Rng rng = util::Rng(99).fork(id + 1);
      std::uint64_t acc = 0;
      for (int i = 0; i < 1000; ++i) acc ^= rng();
      slots[id] = acc;
    });
    return slots;
  };
  const auto seq = sweep(1);
  EXPECT_EQ(sweep(2), seq);
  EXPECT_EQ(sweep(4), seq);
  EXPECT_EQ(sweep(16), seq);
}

TEST(ShardRunner, PropagatesTheFirstJobException) {
  sim::ShardRunner runner(4);
  EXPECT_THROW(
      runner.run(16,
                 [&](sim::ShardId id) {
                   if (id == 5) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
}

TEST(ShardRunner, ZeroJobsIsANoOp) {
  sim::ShardRunner runner(4);
  runner.run(0, [&](sim::ShardId) { FAIL() << "job ran"; });
}

}  // namespace
}  // namespace aam
