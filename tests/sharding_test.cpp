// Receiver-side sharding in the distributed runtime (§4.2 optimization):
// when items are sharded to owning threads by cache line, same-node
// transactions must never conflict — and results must be unchanged.

#include <gtest/gtest.h>

#include <memory>

#include "core/distributed.hpp"

namespace aam::core {
namespace {

using model::HtmKind;

class Producer : public DistributedRuntime::Worker {
 public:
  Producer(DistributedRuntime& rt, std::uint64_t count, int target,
           std::uint64_t slots, util::Rng rng)
      : DistributedRuntime::Worker(rt), rt2_(rt), left_(count),
        target_(target), slots_(slots), rng_(rng) {}

 protected:
  bool produce(htm::ThreadCtx& ctx) override {
    if (left_ == 0) return false;
    for (int b = 0; b < 8 && left_ > 0; ++b) {
      --left_;
      rt2_.spawn(ctx, target_, rng_.next_below(slots_));
    }
    return true;
  }

 private:
  DistributedRuntime& rt2_;
  std::uint64_t left_;
  int target_;
  std::uint64_t slots_;
  util::Rng rng_;
};

struct RunOutcome {
  std::uint64_t total = 0;
  htm::HtmStats stats;
  double makespan = 0;
};

RunOutcome run(bool sharded, std::uint64_t ops, std::uint64_t slots) {
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 4, heap, 7);
  auto data = heap.alloc<std::uint64_t>(slots);  // densely packed: shared lines
  DistributedRuntime rt(cluster, {.coalesce = 16, .exec = {.batch = 16}});
  rt.set_operator([&](auto& access, std::uint64_t item) {
    access.fetch_add(data[item], std::uint64_t{1});
  });
  if (sharded) {
    // Line-granular shard: 8 adjacent u64 slots share a line and a thread.
    rt.set_sharding([](std::uint64_t item) {
      return static_cast<std::uint32_t>(item / 8);
    });
  }
  Producer p(rt, ops, /*target=*/1, slots,
             util::Rng(3));
  std::vector<std::unique_ptr<DistributedRuntime::Worker>> receivers;
  cluster.machine().set_worker(0, &p);
  for (int t = 1; t < 8; ++t) {
    receivers.push_back(std::make_unique<DistributedRuntime::Worker>(rt));
    cluster.machine().set_worker(static_cast<std::uint32_t>(t),
                                 receivers.back().get());
  }
  cluster.machine().run();
  EXPECT_TRUE(rt.drained());

  RunOutcome out;
  for (std::uint64_t s = 0; s < slots; ++s) out.total += data[s];
  out.stats = cluster.machine().stats();
  out.makespan = cluster.machine().makespan();
  return out;
}

TEST(Sharding, PreservesResults) {
  const auto plain = run(false, 2000, 64);
  const auto sharded = run(true, 2000, 64);
  EXPECT_EQ(plain.total, 2000u);
  EXPECT_EQ(sharded.total, 2000u);
}

TEST(Sharding, EliminatesSameNodeConflicts) {
  const auto plain = run(false, 4000, 64);
  const auto sharded = run(true, 4000, 64);
  // Unsharded: four receiver threads batch random hot slots -> conflicts.
  EXPECT_GT(plain.stats.aborts_conflict, 50u);
  // Sharded: disjoint per-thread footprints -> (almost) none.
  EXPECT_LT(sharded.stats.aborts_conflict,
            plain.stats.aborts_conflict / 10);
}

TEST(Sharding, ImprovesMakespanUnderContention) {
  const auto plain = run(false, 4000, 64);
  const auto sharded = run(true, 4000, 64);
  EXPECT_LT(sharded.makespan, plain.makespan);
}

}  // namespace
}  // namespace aam::core
