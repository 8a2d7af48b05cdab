#include <gtest/gtest.h>

#include "core/adaptive.hpp"
#include "core/distributed.hpp"
#include "core/ownership.hpp"
#include "core/runtime.hpp"

namespace aam::core {
namespace {

using model::HtmKind;

// ----------------------------------------------------------- AamRuntime

TEST(AamRuntime, ForEachAppliesEveryItemOnce) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  auto data = heap.alloc<std::uint64_t>(1000);
  AamRuntime rt(machine, {.batch = 16});
  rt.for_each(1000, [&](auto& access, std::uint64_t i) {
    access.fetch_add(data[i], std::uint64_t{1});
  });
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(data[i], 1u) << i;
  const auto s = machine.stats();
  // ceil(1000/16) batches minimum (aborted batches retry, not re-commit).
  EXPECT_GE(s.completed(), 63u);
}

TEST(AamRuntime, BatchOneBehavesLikeSingleElementActivities) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(64);
  AamRuntime rt(machine, {.batch = 1});
  rt.for_each(64, [&](auto& access, std::uint64_t i) {
    access.store(data[i], i);
  });
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(data[i], i);
  EXPECT_EQ(machine.stats().completed(), 64u);
}

TEST(AamRuntime, CoarseningReducesRuntimeOnThisWorkload) {
  // The central §5.5 effect: with per-vertex work dominated by transaction
  // begin/commit overhead, a larger M is faster.
  auto run_with_batch = [](int m) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap);
    auto data = heap.alloc<std::uint64_t>(32768);
    AamRuntime rt(machine, {.batch = m});
    rt.for_each(32768, [&](auto& access, std::uint64_t i) {
      access.store(data[i], std::uint64_t{1});
    });
    return machine.makespan();
  };
  const double t1 = run_with_batch(1);
  const double t32 = run_with_batch(32);
  EXPECT_LT(t32, t1 / 2.0);
}

TEST(AamRuntime, SequentialForEachCalls) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(128);
  AamRuntime rt(machine, {.batch = 8});
  for (int round = 0; round < 3; ++round) {
    rt.for_each(128, [&](auto& access, std::uint64_t i) {
      access.fetch_add(data[i], std::uint64_t{1});
    });
  }
  for (std::uint64_t i = 0; i < 128; ++i) EXPECT_EQ(data[i], 3u);
}

TEST(AamRuntime, AdaptiveBatchShrinksUnderConflicts) {
  // All threads hammer one vertex: abort storms must push M down.
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  auto* hot = heap.alloc_one<std::uint64_t>(0);
  AamRuntime rt(machine, {.batch = 8});
  AdaptiveBatch adaptive;
  rt.set_adaptive(&adaptive);
  rt.for_each(20000, [&](auto& access, std::uint64_t) {
    access.fetch_add(*hot, std::uint64_t{1});
  });
  EXPECT_EQ(*hot, 20000u);
  EXPECT_LT(adaptive.batch(), AdaptiveBatch::kInitialBatch);
}

TEST(AdaptiveBatch, GrowsWhenAbortFree) {
  // Each calm window doubles M, up to kMaxBatch: 8 -> 512 in six windows.
  AdaptiveBatch ab;
  htm::TxnOutcome clean;
  for (int i = 0; i < 7 * AdaptiveBatch::kWindow; ++i) ab.record(clean);
  EXPECT_EQ(ab.batch(), AdaptiveBatch::kMaxBatch);
}

TEST(AdaptiveBatch, ShrinksUnderAborts) {
  // Each stormy window halves M, down to kMinBatch: 8 -> 1 in three.
  AdaptiveBatch ab;
  htm::TxnOutcome bad;
  bad.aborts = 3;
  for (int i = 0; i < 4 * AdaptiveBatch::kWindow; ++i) ab.record(bad);
  EXPECT_EQ(ab.batch(), AdaptiveBatch::kMinBatch);
}

TEST(AdaptiveBatch, RecoversFromAbortStormWithCooldown) {
  // Hardening scenario: reach a steady-state M, take an escalation storm
  // (the engine's livelock signal), then calm down. The controller must
  // (a) degrade to kMinBatch immediately, (b) hold through the cooldown
  // and the storm's tail, and (c) climb back to the pre-storm M within a
  // bounded number of calm windows — without oscillating mid-storm or
  // overshooting the pre-storm M, which lies below kMaxBatch.
  constexpr int kWindow = AdaptiveBatch::kWindow;
  constexpr int kMin = AdaptiveBatch::kMinBatch;
  AdaptiveBatch ab;

  // Three calm windows: 8 -> 64, the fault-free steady state.
  htm::TxnOutcome clean;
  for (int i = 0; i < 3 * kWindow; ++i) ab.record(clean);
  const int steady = 8 * AdaptiveBatch::kInitialBatch;
  ASSERT_EQ(ab.batch(), steady);
  ASSERT_FALSE(ab.recovering());

  // Escalation storm: M collapses to min on the first escalated outcome
  // and stays pinned while the storm lasts.
  htm::TxnOutcome escalated;
  escalated.serialized = true;
  escalated.escalated = true;
  escalated.aborts = 3;
  ab.record(escalated);
  EXPECT_EQ(ab.batch(), kMin);
  EXPECT_TRUE(ab.recovering());
  for (int i = 0; i < 6 * kWindow; ++i) {
    ab.record(escalated);
    EXPECT_EQ(ab.batch(), kMin);
  }

  // Calm: recovery must restore the pre-storm M within the budgeted
  // window count — cooldown + hysteresis per doubling (1->64 is six
  // doublings) — and then leave the recovery regime.
  const int budget_windows =
      AdaptiveBatch::kCooldownWindows + 6 * AdaptiveBatch::kGrowHysteresis + 2;
  int windows_to_recover = -1;
  for (int w = 0; w < budget_windows; ++w) {
    for (int i = 0; i < kWindow; ++i) ab.record(clean);
    EXPECT_LE(ab.batch(), steady) << "recovery overshot the pre-storm M";
    if (ab.batch() == steady) {
      windows_to_recover = w + 1;
      break;
    }
  }
  EXPECT_NE(windows_to_recover, -1)
      << "did not recover within " << budget_windows << " windows";
  EXPECT_GT(windows_to_recover, AdaptiveBatch::kCooldownWindows)
      << "re-grew before the cooldown ended";
  EXPECT_FALSE(ab.recovering());

  // Back to normal control: each further calm window doubles M again.
  for (int i = 0; i < 2 * kWindow; ++i) ab.record(clean);
  EXPECT_EQ(ab.batch(), 4 * steady);
}

// --------------------------------------------------- DistributedRuntime

class ProduceRange : public DistributedRuntime::Worker {
 public:
  ProduceRange(DistributedRuntime& rt, std::uint64_t count, int target_node)
      : DistributedRuntime::Worker(rt), rt2_(rt), left_(count),
        target_(target_node) {}

  bool produce(htm::ThreadCtx& ctx) override {
    if (left_ == 0) return false;
    --left_;
    rt2_.spawn(ctx, target_, left_);
    return true;
  }

 private:
  DistributedRuntime& rt2_;
  std::uint64_t left_;
  int target_;
};

TEST(DistributedRuntime, RemoteSpawnsExecuteAtOwner) {
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 2, heap);
  auto data = heap.alloc<std::uint64_t>(256);
  DistributedRuntime rt(cluster, {.coalesce = 8, .exec = {.batch = 8}});
  rt.set_operator([&](auto& access, std::uint64_t item) {
    access.fetch_add(data[item], std::uint64_t{1});
  });
  // Node 0's threads spawn 100 items owned by node 1; node 1 just polls.
  ProduceRange p0(rt, 100, /*target_node=*/1);
  DistributedRuntime::Worker r1(rt), r2(rt), r3(rt);
  cluster.machine().set_worker(0, &p0);
  cluster.machine().set_worker(1, &r1);
  cluster.machine().set_worker(2, &r2);
  cluster.machine().set_worker(3, &r3);
  cluster.machine().run();

  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 256; ++i) total += data[i];
  EXPECT_EQ(total, 100u);
  EXPECT_TRUE(rt.drained());
  EXPECT_EQ(rt.items_executed(), 100u);
  // Coalescing: ~100/8 messages, not 100.
  EXPECT_LE(cluster.stats().messages_sent, 14u);
}

TEST(DistributedRuntime, LocalSpawnsSkipTheNetwork) {
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  auto data = heap.alloc<std::uint64_t>(64);
  DistributedRuntime rt(cluster, {.coalesce = 8, .exec = {.batch = 4}});
  rt.set_operator([&](auto& access, std::uint64_t item) {
    access.fetch_add(data[item], std::uint64_t{1});
  });
  ProduceRange p0(rt, 50, /*target_node=*/0);  // all local
  DistributedRuntime::Worker r1(rt);
  cluster.machine().set_worker(0, &p0);
  cluster.machine().set_worker(1, &r1);
  cluster.machine().run();
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 64; ++i) total += data[i];
  EXPECT_EQ(total, 50u);
  EXPECT_EQ(cluster.stats().messages_sent, 0u);
}

TEST(DistributedRuntime, FireAndReturnRunsFailureHandlerAtSpawner) {
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  auto data = heap.alloc<std::uint64_t>(64);
  DistributedRuntime rt(cluster, {.coalesce = 4, .exec = {.batch = 4}});
  std::vector<std::uint64_t> failures;
  std::vector<int> failure_nodes;
  rt.set_operator_fr(
      [&](auto& access, std::uint64_t item) -> std::uint64_t {
        access.fetch_add(data[item], std::uint64_t{1});
        // Odd items report back (e.g. a conflicting color, §3.3.5).
        return item % 2 == 1 ? item : 0;
      },
      [&](htm::ThreadCtx& ctx, std::uint64_t result) {
        failures.push_back(result);
        failure_nodes.push_back(
            cluster.node_of_thread(ctx.thread_id()));
      });
  ProduceRange p0(rt, 20, /*target_node=*/1);
  DistributedRuntime::Worker r1(rt);
  cluster.machine().set_worker(0, &p0);
  cluster.machine().set_worker(1, &r1);
  cluster.machine().run();

  EXPECT_EQ(failures.size(), 10u);  // items 1,3,...,19
  for (int node : failure_nodes) EXPECT_EQ(node, 0);  // at the spawner
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 64; ++i) total += data[i];
  EXPECT_EQ(total, 20u);
}

TEST(DistributedRuntime, ManyToOneConvergecast) {
  // N-1 nodes all update vertices owned by the last node (Fig 5d shape).
  mem::SimHeap heap;
  const int nodes = 4;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, nodes, 1, heap);
  auto* hot = heap.alloc_one<std::uint64_t>(0);
  DistributedRuntime rt(cluster, {.coalesce = 16, .exec = {.batch = 16}});
  rt.set_operator([&](auto& access, std::uint64_t) {
    access.fetch_add(*hot, std::uint64_t{1});
  });
  std::vector<std::unique_ptr<ProduceRange>> producers;
  for (int n = 0; n + 1 < nodes; ++n) {
    producers.push_back(std::make_unique<ProduceRange>(rt, 64, nodes - 1));
    cluster.machine().set_worker(cluster.thread_of(n, 0),
                                 producers.back().get());
  }
  DistributedRuntime::Worker sink(rt);
  cluster.machine().set_worker(cluster.thread_of(nodes - 1, 0), &sink);
  cluster.machine().run();
  EXPECT_EQ(*hot, 3u * 64u);
}

// ---------------------------------------------------- OwnershipProtocol

TEST(OwnershipProtocol, CompletesAllTransactionsExactlyOnce) {
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 1, heap);
  const graph::Vertex n = 256;
  auto markers = heap.alloc<std::uint64_t>(n);
  auto values = heap.alloc<std::uint64_t>(n);
  graph::Block1D part(n, 4);
  OwnershipProtocol proto(cluster, markers, values, part);

  OwnershipProtocol::Params params;
  params.txns_per_process = 25;
  params.local_elements = 5;
  params.remote_elements = 1;
  const auto stats = proto.run(params);

  EXPECT_EQ(stats.transactions_completed, 4u * 25u);
  // Exactly-once effects: sum of values == completed * (a + b).
  std::uint64_t total = 0;
  for (std::uint64_t v : values) total += v;
  EXPECT_EQ(total, 100u * 6u);
  // All markers released at the end.
  for (std::uint64_t m : markers) EXPECT_EQ(m, 0u);
  EXPECT_GT(stats.makespan_ns, 0.0);
  EXPECT_GE(stats.marker_cas_attempts, 100u);
}

TEST(OwnershipProtocol, ContentionCausesCasFailuresAndBackoff) {
  // Few elements, many remote acquisitions: CAS failures are inevitable.
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 1, heap);
  const graph::Vertex n = 16;  // tiny: heavy marker contention
  auto markers = heap.alloc<std::uint64_t>(n);
  auto values = heap.alloc<std::uint64_t>(n);
  graph::Block1D part(n, 4);
  OwnershipProtocol proto(cluster, markers, values, part);

  OwnershipProtocol::Params params;
  params.txns_per_process = 50;
  params.local_elements = 2;
  params.remote_elements = 3;
  const auto stats = proto.run(params);

  EXPECT_EQ(stats.transactions_completed, 200u);
  EXPECT_GT(stats.marker_cas_failures, 0u);
  EXPECT_GT(stats.backoffs, 0u);
  std::uint64_t total = 0;
  for (std::uint64_t v : values) total += v;
  EXPECT_EQ(total, 200u * 5u);
}

TEST(OwnershipProtocol, MoreRemoteElementsSlowDownExecution) {
  // The O-1 vs O-3 comparison of §5.7: more remote vertices per txn means
  // more acquisition rounds and a longer makespan.
  auto run_config = [](int a, int b) {
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 1, heap);
    const graph::Vertex n = 4096;
    auto markers = heap.alloc<std::uint64_t>(n);
    auto values = heap.alloc<std::uint64_t>(n);
    graph::Block1D part(n, 4);
    OwnershipProtocol proto(cluster, markers, values, part);
    OwnershipProtocol::Params params;
    params.txns_per_process = 50;
    params.local_elements = a;
    params.remote_elements = b;
    return proto.run(params).makespan_ns;
  };
  EXPECT_LT(run_config(5, 1), run_config(7, 3));
}

}  // namespace
}  // namespace aam::core
