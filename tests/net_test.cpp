#include <gtest/gtest.h>

#include <type_traits>

#include "net/cluster.hpp"

namespace aam::net {
namespace {

using model::HtmKind;

// A worker that polls its node's AM queue and runs handlers until drained.
class PollWorker : public htm::Worker {
 public:
  explicit PollWorker(Cluster& cluster) : cluster_(cluster) {}
  bool next(htm::ThreadCtx& ctx) override {
    return cluster_.poll_and_handle(ctx);
  }

 private:
  Cluster& cluster_;
};

// A worker that runs a setup function once, then polls.
class SendThenPollWorker : public htm::Worker {
 public:
  SendThenPollWorker(Cluster& cluster, std::function<void(htm::ThreadCtx&)> fn)
      : cluster_(cluster), fn_(std::move(fn)) {}
  bool next(htm::ThreadCtx& ctx) override {
    if (fn_) {
      auto fn = std::move(fn_);
      fn_ = nullptr;
      fn(ctx);
      return true;
    }
    return cluster_.poll_and_handle(ctx);
  }

 private:
  Cluster& cluster_;
  std::function<void(htm::ThreadCtx&)> fn_;
};

TEST(Cluster, RejectsATemporaryConfig) {
  // The cluster's machine keeps a reference to the config.
  static_assert(std::is_constructible_v<Cluster, const model::MachineConfig&,
                                        HtmKind, int, int, mem::SimHeap&>);
  static_assert(!std::is_constructible_v<Cluster, model::MachineConfig&&,
                                         HtmKind, int, int, mem::SimHeap&>);
}

TEST(Cluster, ThreadNodeMapping) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 16, heap);
  EXPECT_EQ(cluster.num_nodes(), 4);
  EXPECT_EQ(cluster.machine().num_threads(), 64);
  EXPECT_EQ(cluster.node_of_thread(0), 0);
  EXPECT_EQ(cluster.node_of_thread(15), 0);
  EXPECT_EQ(cluster.node_of_thread(16), 1);
  EXPECT_EQ(cluster.node_of_thread(63), 3);
  EXPECT_EQ(cluster.thread_of(2, 3), 35u);
}

TEST(Cluster, DeliversMessageWithLatency) {
  mem::SimHeap heap;
  Cluster cluster(model::has_p(), HtmKind::kRtm, 2, 1, heap);
  double delivered_at = -1;
  std::uint64_t seen_arg = 0;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx& ctx, const Message& msg) {
        delivered_at = ctx.now();
        seen_arg = msg.arg0;
      });
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    cluster.send(ctx, 1, h, 42);
  });
  PollWorker receiver(cluster);
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &receiver);
  cluster.machine().run();

  EXPECT_EQ(seen_arg, 42u);
  const auto& n = cluster.config().net;
  // Delivery at >= o + L + header bytes; dispatch charged at the receiver.
  EXPECT_GE(delivered_at, n.overhead_ns + n.latency_ns);
  EXPECT_EQ(cluster.stats().messages_sent, 1u);
  EXPECT_EQ(cluster.in_flight(), 0u);
}

TEST(Cluster, WakesParkedReceiver) {
  mem::SimHeap heap;
  Cluster cluster(model::has_p(), HtmKind::kRtm, 2, 1, heap);
  int handled = 0;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx&, const Message&) { ++handled; });
  // The receiver parks immediately (empty queue), then the sender's message
  // must wake it.
  PollWorker receiver(cluster);
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    ctx.compute(5000.0);  // send late, after the receiver parked
    cluster.send(ctx, 1, h, 1);
  });
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &receiver);
  cluster.machine().run();
  EXPECT_EQ(handled, 1);
}

TEST(Cluster, PayloadRoundTrips) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  std::vector<std::uint64_t> received;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx&, const Message& msg) {
        received = msg.payload;
      });
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    cluster.send(ctx, 1, h, 0, 0, {7, 8, 9});
  });
  PollWorker receiver(cluster);
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &receiver);
  cluster.machine().run();
  EXPECT_EQ(received, (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(cluster.stats().items_sent, 3u);
  EXPECT_EQ(cluster.stats().bytes_sent, 32u + 24u);
}

/// The reliable-delivery protocol over a wire that loses nothing.
class PerfectWire final : public NetFaultHook {
 public:
  MessageFate fate(const Message&, bool) override { return {}; }
  double initial_rto_ns() const override { return 1.0e5; }
  double rto_cap_ns() const override { return 1.0e5; }
};

// A delivered message whose ack is still on its way back is no longer in
// flight, but its retransmit timer still consults the hook: changing the
// hook then must die, not leave the timer a null hook.
TEST(ClusterDeathTest, HookChangeWithAnUnackedSendDies) {
  EXPECT_DEATH(
      {
        mem::SimHeap heap;
        Cluster cluster(model::has_p(), HtmKind::kRtm, 2, 1, heap);
        PerfectWire wire;
        cluster.set_fault_hook(&wire);
        const auto h = cluster.register_handler(
            [&](htm::ThreadCtx&, const Message&) {
              if (cluster.in_flight() == 0) cluster.set_fault_hook(nullptr);
            });
        SendThenPollWorker sender(
            cluster, [&](htm::ThreadCtx& ctx) { cluster.send(ctx, 1, h, 1); });
        PollWorker receiver(cluster);
        cluster.machine().set_worker(0, &sender);
        cluster.machine().set_worker(1, &receiver);
        cluster.machine().run();
      },
      "no sends pending");
}

TEST(Coalescer, FlushesAtBatchBoundary) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  std::vector<std::size_t> batch_sizes;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx&, const Message& msg) {
        batch_sizes.push_back(msg.payload.size());
      });
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    Coalescer coalescer(cluster, h, /*batch=*/4);
    for (std::uint64_t i = 0; i < 10; ++i) coalescer.add(ctx, 1, i);
    coalescer.flush_all(ctx);
  });
  PollWorker receiver(cluster);
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &receiver);
  cluster.machine().run();
  ASSERT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(batch_sizes[0], 4u);
  EXPECT_EQ(batch_sizes[1], 4u);
  EXPECT_EQ(batch_sizes[2], 2u);
  // Coalescing 10 items into 3 messages.
  EXPECT_EQ(cluster.stats().messages_sent, 3u);
  EXPECT_EQ(cluster.stats().items_sent, 10u);
}

TEST(Coalescer, SeparatesDestinations) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 3, 1, heap);
  std::vector<int> dst_of_msg;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx&, const Message& msg) {
        dst_of_msg.push_back(msg.dst_node);
      });
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    Coalescer coalescer(cluster, h, 8);
    coalescer.add(ctx, 1, 11);
    coalescer.add(ctx, 2, 22);
    coalescer.flush_all(ctx);
  });
  PollWorker r1(cluster), r2(cluster);
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &r1);
  cluster.machine().set_worker(2, &r2);
  cluster.machine().run();
  EXPECT_EQ(dst_of_msg.size(), 2u);
}

TEST(RemoteAtomics, AppliesCasAndAcc) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  auto* word = heap.alloc_one<std::uint64_t>(5);
  auto* counter = heap.alloc_one<std::uint64_t>(0);
  auto* rank = heap.alloc_one<double>(0.5);
  RemoteAtomics rmw(cluster);
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    rmw.cas_u64(ctx, *word, 5, 9);
    rmw.cas_u64(ctx, *word, 5, 11);  // must fail: word is 9 by then
    rmw.acc_u64(ctx, *counter, 3);
    rmw.acc_f64(ctx, *rank, 0.25);
  });
  cluster.machine().set_worker(0, &sender);
  cluster.machine().run();
  EXPECT_EQ(*word, 9u);
  EXPECT_EQ(*counter, 3u);
  EXPECT_DOUBLE_EQ(*rank, 0.75);
  EXPECT_EQ(rmw.issued(), 4u);
  EXPECT_EQ(rmw.applied(), 4u);
  EXPECT_GT(rmw.last_completion(), 0.0);
}

TEST(RemoteAtomics, PipelinedIssueIsCheap) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  auto targets = heap.alloc<std::uint64_t>(1024 * 8);
  RemoteAtomics rmw(cluster);
  double sender_done = 0;
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    for (int i = 0; i < 1024; ++i) {
      rmw.acc_u64(ctx, targets[static_cast<std::size_t>(i) * 8], 1);
    }
    sender_done = ctx.now();
  });
  cluster.machine().set_worker(0, &sender);
  cluster.machine().run();
  const auto& n = cluster.config().net;
  // The sender pays only the issue gap per op, not the full round trip.
  EXPECT_NEAR(sender_done, 1024 * n.rmw_issue_ns, 1024 * n.rmw_issue_ns * 0.1);
  // Completion trails the issue stream by roughly the remote latency.
  EXPECT_GE(rmw.last_completion(), sender_done);
  EXPECT_LT(rmw.last_completion(), sender_done + 2 * n.rmw_latency_ns);
}

TEST(RemoteAtomics, TargetContentionOnHotLine) {
  mem::SimHeap heap;
  Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap);
  auto* hot = heap.alloc_one<std::uint64_t>(0);
  RemoteAtomics rmw(cluster);
  SendThenPollWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    for (int i = 0; i < 256; ++i) rmw.acc_u64(ctx, *hot, 1);
  });
  cluster.machine().set_worker(0, &sender);
  cluster.machine().run();
  EXPECT_EQ(*hot, 256u);
  // All 256 updates applied exactly (no lost updates at the NIC).
}

}  // namespace
}  // namespace aam::net
