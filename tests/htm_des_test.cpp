#include <gtest/gtest.h>

#include <string>

#include "htm/des_engine.hpp"

namespace aam::htm {
namespace {

using model::HtmKind;

// A worker that stages `count` transactions, each running `body`.
class RepeatTxnWorker : public Worker {
 public:
  RepeatTxnWorker(int count, TxnBody body)
      : remaining_(count), body_(std::move(body)) {}

  bool next(ThreadCtx& ctx) override {
    if (remaining_ == 0) return false;
    --remaining_;
    ctx.stage_transaction(body_);
    return true;
  }

 private:
  int remaining_;
  TxnBody body_;
};

// A worker that performs `count` calls of `fn(ctx)` (one per next()).
class RepeatOpWorker : public Worker {
 public:
  RepeatOpWorker(int count, std::function<void(ThreadCtx&)> fn)
      : remaining_(count), fn_(std::move(fn)) {}

  bool next(ThreadCtx& ctx) override {
    if (remaining_ == 0) return false;
    --remaining_;
    fn_(ctx);
    return true;
  }

 private:
  int remaining_;
  std::function<void(ThreadCtx&)> fn_;
};

TEST(DesMachine, SingleThreadTxnCommits) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto* x = heap.alloc_one<std::uint64_t>(5);
  RepeatTxnWorker w(1, [x](Txn& tx) {
    const auto v = tx.load(*x);
    tx.store(*x, v + 10);
  });
  m.set_worker(0, &w);
  m.run();
  EXPECT_EQ(*x, 15u);
  const HtmStats s = m.stats();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.total_aborts(), 0u);
  EXPECT_EQ(s.serialized, 0u);
  // begin + read + write + commit costs were charged.
  const auto& c = model::has_c().htm(HtmKind::kRtm);
  EXPECT_GE(m.makespan(), c.begin_ns + c.commit_ns);
}

TEST(DesMachine, TxnWritesAreBufferedUntilCommit) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto* x = heap.alloc_one<std::uint64_t>(1);
  bool saw_own_write = false;
  RepeatTxnWorker w(1, [&](Txn& tx) {
    tx.store(*x, std::uint64_t{42});
    saw_own_write = (tx.load(*x) == 42);
    // Committed memory still holds the old value mid-transaction.
    EXPECT_EQ(*x, 1u);
  });
  m.set_worker(0, &w);
  m.run();
  EXPECT_TRUE(saw_own_write);
  EXPECT_EQ(*x, 42u);
}

TEST(DesMachine, ReadYourOwnWritesThroughWriteBufferFilter) {
  // A load consults the write buffer only when this attempt wrote the
  // load's conflict unit. Store word A, then load A (buffered value) and
  // its neighbour B in the same 64 B line (committed value): B shares A's
  // unit on Haswell (64 B units) and not on BG/Q (8 B units). Both paths
  // run the same accessors, so cover the speculative and the serialized.
  struct Case {
    const model::MachineConfig* config;
    HtmKind kind;
    std::uint32_t conflict_shift;
    bool serialized;
  };
  const Case cases[] = {{&model::has_c(), HtmKind::kRtm, 6, false},
                        {&model::has_c(), HtmKind::kRtm, 6, true},
                        {&model::bgq(), HtmKind::kBgqShort, 3, false},
                        {&model::bgq(), HtmKind::kBgqShort, 3, true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(model::to_string(c.kind)) +
                 (c.serialized ? " serialized" : " speculative"));
    mem::SimHeap heap(1 << 16);
    DesMachine m(*c.config, c.kind, 1, heap);
    ASSERT_EQ(m.conflict_shift(), c.conflict_shift);
    auto words = heap.alloc<std::uint64_t>(8);  // A and B share a line
    ASSERT_EQ(heap.line_of(&words[0]), heap.line_of(&words[1]));
    words[0] = 1;
    words[1] = 2;
    std::uint64_t seen_a = 0;
    std::uint64_t seen_b = 0;
    bool ran_serialized = false;
    RepeatTxnWorker w(1, [&](Txn& tx) {
      // Explicit aborts exhaust the retry budget and force serialization.
      if (c.serialized && !tx.serialized()) tx.abort();
      tx.store(words[0], std::uint64_t{10});
      seen_a = tx.load(words[0]);
      seen_b = tx.load(words[1]);
      ran_serialized = tx.serialized();
    });
    m.set_worker(0, &w);
    m.run();
    EXPECT_EQ(ran_serialized, c.serialized);
    EXPECT_EQ(seen_a, 10u);
    EXPECT_EQ(seen_b, 2u);
    EXPECT_EQ(words[0], 10u);
    EXPECT_EQ(words[1], 2u);
    EXPECT_EQ(m.stats().serialized, c.serialized ? 1u : 0u);
  }
}

TEST(DesMachine, HeapAllocatedMidBodyIsTracked) {
  // The footprint table covers the heap prefix in use when the attempt
  // began; memory allocated inside the body extends it on first access.
  mem::SimHeap heap(1 << 20);
  DesMachine m(model::bgq(), HtmKind::kBgqShort, 1, heap);
  std::uint64_t* late = nullptr;
  RepeatTxnWorker w(1, [&](Txn& tx) {
    late = heap.alloc<std::uint64_t>(4096, "late").data();
    tx.store(late[4095], std::uint64_t{7});
    EXPECT_EQ(tx.load(late[4095]), 7u);
  });
  m.set_worker(0, &w);
  m.run();
  EXPECT_EQ(late[4095], 7u);
  EXPECT_EQ(m.thread_footprint(0).write_units().size(), 1u);
}

TEST(DesMachineDeathTest, OffHeapTransactionalAccessAborts) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  heap.alloc<std::uint64_t>(8);
  std::uint64_t off_heap = 0;
  RepeatTxnWorker w(1, [&](Txn& tx) { (void)tx.load(off_heap); });
  m.set_worker(0, &w);
  EXPECT_DEATH(m.run(), "outside the SimHeap");
}

TEST(DesMachine, SubWordStoresSpliceCorrectly) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto arr = heap.alloc<std::uint32_t>(2);  // shares one 8-byte word
  arr[0] = 0x11111111;
  arr[1] = 0x22222222;
  RepeatTxnWorker w(1, [&](Txn& tx) {
    tx.store(arr[0], 0xaaaaaaaau);
    tx.store(arr[1], 0xbbbbbbbbu);
  });
  m.set_worker(0, &w);
  m.run();
  EXPECT_EQ(arr[0], 0xaaaaaaaau);
  EXPECT_EQ(arr[1], 0xbbbbbbbbu);
}

TEST(DesMachine, ConflictingTxnsSerializeCorrectly) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 4, heap);
  auto* counter = heap.alloc_one<std::uint64_t>(0);
  const int per_thread = 50;
  std::vector<std::unique_ptr<RepeatTxnWorker>> workers;
  for (int t = 0; t < 4; ++t) {
    workers.push_back(std::make_unique<RepeatTxnWorker>(
        per_thread, [counter](Txn& tx) {
          tx.fetch_add(*counter, std::uint64_t{1});
        }));
    m.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  m.run();
  // Atomicity: no increment is lost despite conflicts.
  EXPECT_EQ(*counter, 4u * per_thread);
  const HtmStats s = m.stats();
  EXPECT_EQ(s.completed(), 4u * per_thread);
  // Concurrent RMW on one line must generate conflict aborts.
  EXPECT_GT(s.aborts_conflict, 0u);
}

TEST(DesMachine, OverlappingTxnsFirstCommitterWins) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 2, heap);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  RepeatTxnWorker w0(1, [x](Txn& tx) { tx.fetch_add(*x, std::uint64_t{1}); });
  RepeatTxnWorker w1(1, [x](Txn& tx) { tx.fetch_add(*x, std::uint64_t{1}); });
  m.set_worker(0, &w0);
  m.set_worker(1, &w1);
  m.run();
  EXPECT_EQ(*x, 2u);
  EXPECT_EQ(m.stats().committed + m.stats().serialized, 2u);
  EXPECT_GE(m.stats().aborts_conflict, 1u);
}

TEST(DesMachine, DisjointTxnsDoNotConflict) {
  mem::SimHeap heap(1 << 20);
  DesMachine m(model::has_c(), HtmKind::kRtm, 8, heap);
  auto vars = heap.alloc<std::uint64_t>(8 * 8);  // one line per thread
  std::vector<std::unique_ptr<RepeatTxnWorker>> workers;
  for (int t = 0; t < 8; ++t) {
    auto* slot = &vars[static_cast<std::size_t>(t) * 8];
    workers.push_back(std::make_unique<RepeatTxnWorker>(
        100, [slot](Txn& tx) { tx.fetch_add(*slot, std::uint64_t{1}); }));
    m.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  m.run();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(vars[static_cast<std::size_t>(t) * 8], 100u);
  EXPECT_EQ(m.stats().aborts_conflict, 0u);
  EXPECT_EQ(m.stats().committed, 800u);
}

TEST(DesMachine, CapacityAbortLeadsToSerialization) {
  mem::SimHeap heap(1 << 22);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  // Has-C RTM write capacity is 512 lines (64 sets x 8 ways); write 600.
  auto data = heap.alloc<std::uint64_t>(600 * 8);
  RepeatTxnWorker w(1, [&](Txn& tx) {
    for (std::size_t i = 0; i < 600; ++i) {
      tx.store(data[i * 8], std::uint64_t{1});
    }
  });
  m.set_worker(0, &w);
  m.run();
  const HtmStats s = m.stats();
  EXPECT_GE(s.aborts_capacity, 1u);
  EXPECT_EQ(s.serialized, 1u);
  EXPECT_EQ(s.committed, 0u);
  // The serialized execution still applied every write.
  for (std::size_t i = 0; i < 600; ++i) EXPECT_EQ(data[i * 8], 1u);
}

TEST(DesMachine, BgqHardwareRetriesUpToLimitThenSerializes) {
  mem::SimHeap heap(1 << 22);
  DesMachine m(model::bgq(), HtmKind::kBgqShort, 1, heap);
  // BGQ short write budget is 2048 lines; exceed it.
  auto data = heap.alloc<std::uint64_t>(2100 * 8);
  RepeatTxnWorker w(1, [&](Txn& tx) {
    for (std::size_t i = 0; i < 2100; ++i) {
      tx.store(data[i * 8], std::uint64_t{1});
    }
  });
  m.set_worker(0, &w);
  m.run();
  const HtmStats s = m.stats();
  // Hardware blindly retries max_retries(10) times: 11 capacity aborts.
  EXPECT_EQ(s.aborts_capacity, 11u);
  EXPECT_EQ(s.serialized, 1u);
}

TEST(DesMachine, HleSerializesAfterFirstAbort) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kHle, 4, heap);
  auto* hot = heap.alloc_one<std::uint64_t>(0);
  std::vector<std::unique_ptr<RepeatTxnWorker>> workers;
  for (int t = 0; t < 4; ++t) {
    workers.push_back(std::make_unique<RepeatTxnWorker>(
        50, [hot](Txn& tx) { tx.fetch_add(*hot, std::uint64_t{1}); }));
    m.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  m.run();
  EXPECT_EQ(*hot, 200u);
  const HtmStats s = m.stats();
  EXPECT_GT(s.serialized, 0u);
  // With HLE, no transaction ever retries speculatively after an abort:
  // every abort converts into (at most) one serialization.
  EXPECT_GE(s.total_aborts(), s.serialized);
}

TEST(DesMachine, AtomicCasContentionQueues) {
  mem::SimHeap heap(1 << 16);
  const auto& cfg = model::has_c();
  DesMachine m(cfg, HtmKind::kRtm, 8, heap);
  auto* hot = heap.alloc_one<std::uint64_t>(0);
  std::vector<std::unique_ptr<RepeatOpWorker>> workers;
  for (int t = 0; t < 8; ++t) {
    workers.push_back(std::make_unique<RepeatOpWorker>(
        10, [hot](ThreadCtx& ctx) {
          ctx.fetch_add(*hot, std::uint64_t{1});
        }));
    m.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  m.run();
  EXPECT_EQ(*hot, 80u);
  // 80 atomics on one line must serialize on the line-transfer window.
  EXPECT_GE(m.makespan(), 79 * cfg.atomics.line_transfer_ns);
  EXPECT_EQ(m.stats().atomic_acc, 80u);
}

TEST(DesMachine, UncontendedAtomicsRunInParallel) {
  mem::SimHeap heap(1 << 20);
  const auto& cfg = model::has_c();
  DesMachine m(cfg, HtmKind::kRtm, 8, heap);
  auto vars = heap.alloc<std::uint64_t>(8 * 8);
  std::vector<std::unique_ptr<RepeatOpWorker>> workers;
  for (int t = 0; t < 8; ++t) {
    auto* slot = &vars[static_cast<std::size_t>(t) * 8];
    workers.push_back(std::make_unique<RepeatOpWorker>(
        100, [slot](ThreadCtx& ctx) {
          ctx.fetch_add(*slot, std::uint64_t{1});
        }));
    m.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  m.run();
  // Independent lines: each thread's 100 ACCs proceed without queuing.
  EXPECT_LT(m.makespan(), 101 * cfg.atomics.acc_ns);
}

TEST(DesMachine, CasSemantics) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto* x = heap.alloc_one<std::uint64_t>(7);
  bool first = false, second = false;
  RepeatOpWorker w(1, [&](ThreadCtx& ctx) {
    first = ctx.cas(*x, std::uint64_t{7}, std::uint64_t{9});
    second = ctx.cas(*x, std::uint64_t{7}, std::uint64_t{11});
  });
  m.set_worker(0, &w);
  m.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(*x, 9u);
}

TEST(DesMachine, ExplicitAbortRetriesThenSerializedPathSkips) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  RepeatTxnWorker w(1, [x](Txn& tx) {
    tx.store(*x, std::uint64_t{1});
    tx.abort();  // operator decides to do nothing
  });
  m.set_worker(0, &w);
  m.run();
  // Aborting retries until the retry budget forces serialization, where an
  // explicit abort completes as a no-op: the store must not be visible.
  EXPECT_EQ(*x, 0u);
  const HtmStats s = m.stats();
  EXPECT_EQ(s.serialized, 1u);
  EXPECT_GT(s.aborts_explicit, 0u);
}

TEST(DesMachine, DoneCallbackReportsOutcome) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  TxnOutcome seen;
  bool called = false;
  class StageOnce : public Worker {
   public:
    StageOnce(std::uint64_t* x, TxnOutcome* out, bool* called)
        : x_(x), out_(out), called_(called) {}
    bool next(ThreadCtx& ctx) override {
      if (done_) return false;
      done_ = true;
      ctx.stage_transaction(
          [x = x_](Txn& tx) { tx.store(*x, std::uint64_t{3}); },
          [out = out_, called = called_](ThreadCtx&, const TxnOutcome& o) {
            *out = o;
            *called = true;
          });
      return true;
    }
   private:
    std::uint64_t* x_;
    TxnOutcome* out_;
    bool* called_;
    bool done_ = false;
  };
  StageOnce w(x, &seen, &called);
  m.set_worker(0, &w);
  m.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(seen.serialized);
  EXPECT_EQ(seen.aborts, 0);
  EXPECT_GT(seen.end_ns, seen.start_ns);
}

TEST(DesMachine, QuiescenceHookRunsPhases) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 4, heap);
  auto* counter = heap.alloc_one<std::uint64_t>(0);
  struct PhaseWorker : Worker {
    std::uint64_t* counter;
    int budget = 0;
    bool next(ThreadCtx& ctx) override {
      if (budget == 0) return false;
      --budget;
      ctx.fetch_add(*counter, std::uint64_t{1});
      return true;
    }
  };
  std::vector<PhaseWorker> workers(4);
  for (int t = 0; t < 4; ++t) {
    workers[static_cast<std::size_t>(t)].counter = counter;
    workers[static_cast<std::size_t>(t)].budget = 10;
    m.set_worker(static_cast<std::uint32_t>(t), &workers[static_cast<std::size_t>(t)]);
  }
  int phases = 0;
  m.set_quiescence_hook([&](DesMachine& machine) {
    if (++phases >= 3) return false;
    for (auto& w : workers) w.budget = 10;
    machine.barrier_release(100.0);
    return true;
  });
  m.run();
  EXPECT_EQ(phases, 3);
  EXPECT_EQ(*counter, 3u * 4u * 10u);
}

TEST(DesMachine, ScheduledCallbacksFireInOrder) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  std::vector<int> order;
  m.schedule_callback(300.0, [&] { order.push_back(3); });
  m.schedule_callback(100.0, [&] { order.push_back(1); });
  m.schedule_callback(200.0, [&] { order.push_back(2); });
  m.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  EXPECT_DOUBLE_EQ(m.now(), 300.0);
}

TEST(DesMachine, WakeRestartsParkedThread) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  struct Pollable : Worker {
    std::uint64_t* x;
    bool has_work = false;
    bool next(ThreadCtx& ctx) override {
      if (!has_work) return false;
      has_work = false;
      ctx.store(*x, ctx.now() >= 500.0 ? std::uint64_t{1} : std::uint64_t{2});
      return true;
    }
  };
  Pollable w;
  w.x = x;
  m.set_worker(0, &w);
  m.schedule_callback(500.0, [&] {
    w.has_work = true;
    m.wake(0);
  });
  m.run();
  // The thread resumed at (not before) the callback time.
  EXPECT_EQ(*x, 1u);
}

TEST(DesMachine, DeterministicAcrossRuns) {
  auto run_once = [] {
    mem::SimHeap heap(1 << 18);
    DesMachine m(model::bgq(), HtmKind::kBgqShort, 16, heap, /*seed=*/77);
    auto* hot = heap.alloc_one<std::uint64_t>(0);
    std::vector<std::unique_ptr<RepeatTxnWorker>> workers;
    for (int t = 0; t < 16; ++t) {
      workers.push_back(std::make_unique<RepeatTxnWorker>(
          20, [hot](Txn& tx) { tx.fetch_add(*hot, std::uint64_t{1}); }));
      m.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
    }
    m.run();
    return std::tuple(m.makespan(), m.stats().total_aborts(),
                      m.stats().serialized, *hot);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DesMachine, ResetClocksBetweenPhases) {
  mem::SimHeap heap(1 << 16);
  DesMachine m(model::has_c(), HtmKind::kRtm, 2, heap);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  RepeatOpWorker w0(5, [x](ThreadCtx& ctx) { ctx.fetch_add(*x, std::uint64_t{1}); });
  RepeatOpWorker w1(5, [x](ThreadCtx& ctx) { ctx.fetch_add(*x, std::uint64_t{1}); });
  m.set_worker(0, &w0);
  m.set_worker(1, &w1);
  m.run();
  const double first = m.makespan();
  EXPECT_GT(first, 0.0);
  m.reset_clocks(0.0, /*clear_stats=*/true);
  EXPECT_DOUBLE_EQ(m.makespan(), 0.0);
  EXPECT_EQ(m.stats().atomic_acc, 0u);
}

}  // namespace
}  // namespace aam::htm
