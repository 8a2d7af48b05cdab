#include <gtest/gtest.h>

#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "htm/des_engine.hpp"
#include "sim/schedule.hpp"
#include "util/blob.hpp"

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

/// Records every committed write the machine reports.
class WriteRecorder : public mem::WriteObserver {
 public:
  void on_legitimate_write(std::uint64_t offset, std::uint32_t len) override {
    writes.emplace_back(offset, len);
  }
  void on_run_start() override {}
  void on_quiescence() override {}
  std::vector<std::pair<std::uint64_t, std::uint32_t>> writes;
};

/// Stages each body once, in order.
class ScriptWorker : public Worker {
 public:
  explicit ScriptWorker(std::vector<TxnBody> bodies)
      : bodies_(std::move(bodies)) {}

  bool next(ThreadCtx& ctx) override {
    if (next_ == bodies_.size()) return false;
    ctx.stage_transaction(bodies_[next_++]);
    return true;
  }

 private:
  std::vector<TxnBody> bodies_;
  std::size_t next_ = 0;
};

TEST(DesMachine, RejectsATemporaryConfig) {
  // The machine keeps a reference to its config: a temporary would dangle
  // once the constructing statement ends.
  static_assert(std::is_constructible_v<DesMachine, const model::MachineConfig&,
                                        model::HtmKind, int, mem::SimHeap&>);
  static_assert(!std::is_constructible_v<DesMachine, model::MachineConfig&&,
                                         model::HtmKind, int, mem::SimHeap&>);
  static_assert(
      !std::is_constructible_v<DesMachine, model::MachineConfig&&,
                               model::HtmKind, int, mem::SimHeap&,
                               std::uint64_t, int>);
}

TEST(DesMachine, SingleThreadTxnCommits) {
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  // A load consults the write log only when this attempt wrote the
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
    mem::SimHeap heap;
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
  mem::SimHeap heap;
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

/// `base` with kind's asynchronous "other" aborts switched off, so a body
/// that fits its capacity commits on its first attempt.
model::MachineConfig without_other_aborts(const model::MachineConfig& base,
                                          HtmKind kind) {
  model::MachineConfig config = base;
  config.htm_costs_[static_cast<int>(kind)].other_abort_per_us = 0;
  return config;
}

/// A fault hook that slows nothing down. It turns the first `aborts`
/// speculative attempts to reach it into "other" aborts striking half-way
/// through, and records the start the engine passes to slowdown() right
/// after a body that set `armed`.
class ScriptedHook final : public FaultHook {
 public:
  bool inject_other_abort(std::uint32_t, double, double,
                          double& frac_out) override {
    if (aborts == 0) return false;
    --aborts;
    frac_out = 0.5;
    return true;
  }
  double slowdown(std::uint32_t, double now_ns) override {
    if (armed) {
      start = now_ns;
      armed = false;
    }
    return 1.0;
  }

  int aborts = 0;
  bool armed = false;
  double start = -1;
};

struct CostCase {
  const model::MachineConfig* config;
  HtmKind kind;
  bool serialized;
};

std::string describe(const CostCase& c) {
  return std::string(model::to_string(c.kind)) +
         (c.serialized ? " serialized" : " speculative");
}

const CostCase kCostCases[] = {
    {&model::bgq(), HtmKind::kBgqShort, false},
    {&model::bgq(), HtmKind::kBgqShort, true},
    {&model::has_c(), HtmKind::kRtm, false},
    {&model::has_c(), HtmKind::kRtm, true}};

TEST(DesMachine, AttemptCostIsExactSumOfAccessCharges) {
  // n loads and m stores end an attempt at exactly
  //   speculative: begin + n (read + load) + m (write + store) + commit
  //   serialized:  acquire + n load + m store
  // after its start, the charges added one access at a time, as the
  // engine does. Part of the footprint lies in memory allocated inside
  // the body, past the cover cached when the attempt began.
  constexpr int kLoads = 37;
  constexpr int kStores = 11;
  for (const CostCase& c : kCostCases) {
    SCOPED_TRACE(describe(c));
    const model::MachineConfig config = without_other_aborts(*c.config, c.kind);
    const model::HtmCosts& costs = config.htm(c.kind);
    mem::SimHeap heap;
    DesMachine m(config, c.kind, 1, heap);
    auto early = heap.alloc<std::uint64_t>(64, "early");
    std::span<std::uint64_t> late;
    // The hook reports the final attempt's start, which the body cannot see.
    ScriptedHook probe;
    m.set_fault_hook(&probe);
    RepeatTxnWorker w(1, [&](Txn& tx) {
      if (c.serialized && !tx.serialized()) tx.abort();
      probe.armed = true;
      if (late.empty()) late = heap.alloc<std::uint64_t>(4096, "late");
      for (int i = 0; i < kLoads; ++i) {
        // Alternate between the early and the late allocation, one line
        // apart, so first touches and repeats both occur.
        const std::size_t word = static_cast<std::size_t>(i / 2) * 8;
        (void)tx.load(i % 2 == 0 ? early[word % 64] : late[word]);
      }
      for (int j = 0; j < kStores; ++j) {
        tx.store(late[static_cast<std::size_t>(j) * 16 + 1],
                 static_cast<std::uint64_t>(j + 1));
      }
    });
    m.set_worker(0, &w);
    m.run();

    double expect = c.serialized ? costs.serialize_acquire_ns : costs.begin_ns;
    const auto& a = config.atomics;
    for (int i = 0; i < kLoads; ++i) {
      expect += c.serialized ? a.load_ns : costs.read_ns + a.load_ns;
    }
    for (int j = 0; j < kStores; ++j) {
      expect += c.serialized ? a.store_ns : costs.write_ns + a.store_ns;
    }
    if (!c.serialized) expect += costs.commit_ns;
    // The attempt's end is the thread's clock; compared bit for bit.
    EXPECT_EQ(m.makespan(), probe.start + expect);

    const HtmStats s = m.stats();
    EXPECT_EQ(s.committed, c.serialized ? 0u : 1u);
    EXPECT_EQ(s.serialized, c.serialized ? 1u : 0u);
    EXPECT_EQ(s.aborts_capacity + s.aborts_conflict + s.aborts_other, 0u);
    // The late memory is tracked after the cover refresh: every store is a
    // written unit, and the stores landed at commit.
    EXPECT_EQ(m.thread_footprint(0).write_units().size(),
              static_cast<std::size_t>(kStores));
    for (int j = 0; j < kStores; ++j) {
      EXPECT_EQ(late[static_cast<std::size_t>(j) * 16 + 1],
                static_cast<std::uint64_t>(j + 1));
    }
  }
}

TEST(DesMachine, ReadCapacityBindsSpeculationOnly) {
  // A speculative attempt also reads its domain's fallback-lock line, so
  // a body of capacity - 1 distinct lines fills the read budget exactly
  // and one of `capacity` lines is one line over it. The serialized path
  // tracks reads with no budget.
  for (const CostCase& c : kCostCases) {
    if (c.serialized) continue;
    SCOPED_TRACE(describe(c));
    const model::MachineConfig config = without_other_aborts(*c.config, c.kind);
    const std::uint32_t capacity = config.htm(c.kind).read_capacity_lines;
    for (const std::uint32_t body_lines : {capacity - 1, capacity}) {
      SCOPED_TRACE(body_lines);
      mem::SimHeap heap;
      DesMachine m(config, c.kind, 1, heap);
      auto data = heap.alloc<std::uint64_t>(std::size_t{body_lines} * 8);
      std::uint32_t serialized_lines = 0;
      RepeatTxnWorker w(1, [&](Txn& tx) {
        for (std::uint32_t l = 0; l < body_lines; ++l) {
          (void)tx.load(data[std::size_t{l} * 8]);
        }
        if (tx.serialized()) {
          serialized_lines = static_cast<std::uint32_t>(
              m.thread_footprint(0).distinct_read_lines());
        }
      });
      m.set_worker(0, &w);
      m.run();
      const HtmStats s = m.stats();
      if (body_lines < capacity) {
        EXPECT_EQ(s.committed, 1u);
        EXPECT_EQ(s.aborts_capacity, 0u);
        EXPECT_EQ(m.thread_footprint(0).distinct_read_lines(), capacity);
      } else {
        EXPECT_EQ(s.committed, 0u);
        EXPECT_GE(s.aborts_capacity, 1u);
        EXPECT_EQ(s.serialized, 1u);
        // The serialized body read every line without aborting.
        EXPECT_EQ(serialized_lines, body_lines);
      }
    }
  }
}

/// BG/Q short mode with no modelled "other" aborts and no backoff, so an
/// attempt's timeline is the exact sum of its charges.
model::MachineConfig quiet_bgq() {
  model::MachineConfig config =
      without_other_aborts(model::bgq(), HtmKind::kBgqShort);
  auto& costs = config.htm_costs_[static_cast<int>(HtmKind::kBgqShort)];
  costs.backoff_base_ns = 0;
  costs.backoff_max_ns = 0;
  return config;
}

TEST(ReplayedRetry, CleanRetryReusesTheLastBodyRun) {
  // Two injected "other" aborts leave the footprint untouched, so both
  // retries replay the first body run: one run, three attempts, and the
  // clock of three attempts that each paid the full body charges.
  const model::MachineConfig config = quiet_bgq();
  mem::SimHeap heap;
  DesMachine m(config, HtmKind::kBgqShort, 1, heap);
  ScriptedHook hook;
  hook.aborts = 2;
  m.set_fault_hook(&hook);
  auto* x = heap.alloc_one<std::uint64_t>(5);
  auto* y = heap.alloc_one<std::uint64_t>(0);
  int runs = 0;
  RepeatTxnWorker w(1, [&runs, x, y](Txn& tx) {
    ++runs;
    tx.store(*y, tx.load(*x) + 1);
  });
  m.set_worker(0, &w);
  m.run();

  EXPECT_EQ(runs, 1);
  EXPECT_EQ(*x, 5u);
  EXPECT_EQ(*y, 6u);
  const HtmStats s = m.stats();
  EXPECT_EQ(s.started, 3u);
  EXPECT_EQ(s.aborts_other, 2u);
  EXPECT_EQ(s.total_aborts(), 2u);
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.serialized, 0u);
  // Each abort strikes half-way through a full attempt, then pays abort_ns
  // (backoff is zero); the third attempt commits after the whole duration.
  const model::HtmCosts& c = config.htm(HtmKind::kBgqShort);
  const auto& a = config.atomics;
  const double duration = c.begin_ns + (c.read_ns + a.load_ns) +
                          (c.write_ns + a.store_ns) + c.commit_ns;
  double start = 0;
  for (int i = 0; i < 2; ++i) start = start + 0.5 * duration + c.abort_ns;
  EXPECT_EQ(m.makespan(), start + duration);
}

TEST(ReplayedRetry, RetryAfterACommittedStoreToItsReadsRerunsTheBody) {
  // Thread 1's plain store to x lands between thread 0's first attempt
  // (aborted by the hook) and its retry, so the retry runs the body again
  // and commits from the new value.
  const model::MachineConfig config = quiet_bgq();
  mem::SimHeap heap;
  DesMachine m(config, HtmKind::kBgqShort, 2, heap);
  ScriptedHook hook;
  hook.aborts = 1;
  m.set_fault_hook(&hook);
  auto* x = heap.alloc_one<std::uint64_t>(5);
  auto* y = heap.alloc_one<std::uint64_t>(0);
  int runs = 0;
  RepeatTxnWorker txn(1, [&runs, x, y](Txn& tx) {
    ++runs;
    tx.store(*y, tx.load(*x) + 1);
  });
  RepeatOpWorker store(1, [x](ThreadCtx& ctx) {
    ctx.store(*x, std::uint64_t{100});
  });
  m.set_worker(0, &txn);
  m.set_worker(1, &store);
  m.run();

  EXPECT_EQ(runs, 2);
  EXPECT_EQ(*y, 101u);
  const HtmStats s = m.stats();
  EXPECT_EQ(s.aborts_other, 1u);
  EXPECT_EQ(s.total_aborts(), 1u);
  EXPECT_EQ(s.committed, 1u);
}

TEST(ReplayedRetry, CapacityOverflowReplaysToTheSameAbortThenSerializes) {
  // 600 stores to distinct lines overflow RTM's 512-line write geometry on
  // every speculative run. The retry replays the overflow, and the second
  // capacity abort sends the transaction to the lock, whose run commits.
  const model::MachineConfig config =
      without_other_aborts(model::has_c(), HtmKind::kRtm);
  constexpr std::size_t kLines = 600;
  mem::SimHeap heap;
  DesMachine m(config, HtmKind::kRtm, 1, heap);
  auto data = heap.alloc<std::uint64_t>(kLines * 8);
  int runs = 0;
  bool last_run_serialized = false;
  RepeatTxnWorker w(1, [&](Txn& tx) {
    ++runs;
    last_run_serialized = tx.serialized();
    for (std::size_t l = 0; l < kLines; ++l) tx.store(data[l * 8], l + 1);
  });
  m.set_worker(0, &w);
  m.run();

  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(last_run_serialized);
  const HtmStats s = m.stats();
  EXPECT_EQ(s.started, 2u);
  EXPECT_EQ(s.aborts_capacity, 2u);
  EXPECT_EQ(s.total_aborts(), 2u);
  EXPECT_EQ(s.serialized, 1u);
  EXPECT_EQ(s.committed, 0u);
  for (std::size_t l = 0; l < kLines; ++l) EXPECT_EQ(data[l * 8], l + 1);
}

TEST(DesMachineDeathTest, OffHeapTransactionalAccessAborts) {
  mem::SimHeap heap;
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  heap.alloc<std::uint64_t>(8);
  std::uint64_t off_heap = 0;
  RepeatTxnWorker w(1, [&](Txn& tx) { (void)tx.load(off_heap); });
  m.set_worker(0, &w);
  EXPECT_DEATH(m.run(), "outside the SimHeap");
}

TEST(DesMachine, SubWordStoresSpliceCorrectly) {
  const model::MachineConfig config =
      without_other_aborts(model::has_c(), HtmKind::kRtm);
  mem::SimHeap heap;
  DesMachine m(config, HtmKind::kRtm, 1, heap);
  auto arr = heap.alloc<std::uint32_t>(2);  // shares one 8-byte word
  arr[0] = 0x11111111;
  arr[1] = 0x22222222;
  WriteRecorder recorder;
  m.set_write_observer(&recorder);
  std::uint32_t seen[2] = {0, 0};
  RepeatTxnWorker w(1, [&](Txn& tx) {
    tx.store(arr[0], 0xaaaaaaaau);
    tx.store(arr[1], 0xbbbbbbbbu);
    seen[0] = tx.load(arr[0]);
    seen[1] = tx.load(arr[1]);
  });
  m.set_worker(0, &w);
  m.run();
  EXPECT_EQ(seen[0], 0xaaaaaaaau);
  EXPECT_EQ(seen[1], 0xbbbbbbbbu);
  EXPECT_EQ(arr[0], 0xaaaaaaaau);
  EXPECT_EQ(arr[1], 0xbbbbbbbbu);
  // Commit wrote the word back once: both stores share one log entry.
  ASSERT_EQ(recorder.writes.size(), 1u);
  EXPECT_EQ(recorder.writes[0],
            (std::pair<std::uint64_t, std::uint32_t>{heap.offset_of(arr.data()),
                                                     8u}));
}

TEST(DesMachine, ConflictingTxnsSerializeCorrectly) {
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
  mem::SimHeap heap;
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
    mem::SimHeap heap;
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
  mem::SimHeap heap;
  DesMachine m(model::has_c(), HtmKind::kRtm, 2, heap);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  RepeatOpWorker w0(5, [x](ThreadCtx& ctx) { ctx.fetch_add(*x, std::uint64_t{1}); });
  RepeatOpWorker w1(5, [x](ThreadCtx& ctx) { ctx.fetch_add(*x, std::uint64_t{1}); });
  m.set_worker(0, &w0);
  m.set_worker(1, &w1);
  m.run();
  const double first = m.makespan();
  EXPECT_GT(first, 0.0);
  m.reset_clocks();
  EXPECT_DOUBLE_EQ(m.makespan(), 0.0);
  EXPECT_EQ(m.stats().atomic_acc, 0u);
}


// ------------------------------------------------------------ write log
//
// A transaction's buffered words live in its own write log, found through
// the machine-wide write index of the footprint table. Only the running
// body may read the index; these tests pin the cases where a slot could be
// stale.

TEST(WriteLog, MidBodyAllocationKeepsBufferedWords) {
  // The allocation grows the footprint table's cover, and with it the
  // write index, from a few hundred bytes to megabytes: the words buffered
  // before the growth must still read back, and so must those after it.
  for (const CostCase& c : kCostCases) {
    SCOPED_TRACE(describe(c));
    const model::MachineConfig config = without_other_aborts(*c.config, c.kind);
    mem::SimHeap heap;
    DesMachine m(config, c.kind, 1, heap);
    auto early = heap.alloc<std::uint64_t>(4, "early");
    std::span<std::uint64_t> late;
    bool all_seen = false;
    RepeatTxnWorker w(1, [&](Txn& tx) {
      if (c.serialized && !tx.serialized()) tx.abort();
      for (std::size_t i = 0; i < early.size(); ++i) {
        tx.store(early[i], std::uint64_t{10 + i});
      }
      if (late.empty()) late = heap.alloc<std::uint64_t>(std::size_t{1} << 20);
      tx.store(late.back(), std::uint64_t{99});
      tx.store(early[0], std::uint64_t{20});  // updates the early entry
      bool ok = tx.load(late.back()) == 99 && tx.load(early[0]) == 20;
      for (std::size_t i = 1; i < early.size(); ++i) {
        ok = ok && tx.load(early[i]) == 10 + i && early[i] == 0;
      }
      all_seen = ok;
    });
    m.set_worker(0, &w);
    m.run();
    EXPECT_TRUE(all_seen);
    EXPECT_EQ(early[0], 20u);
    for (std::size_t i = 1; i < early.size(); ++i) EXPECT_EQ(early[i], 10 + i);
    EXPECT_EQ(late.back(), 99u);
  }
}

TEST(WriteLog, AnotherInFlightBodysWordReadsAsCommitted) {
  // Thread 0 buffers X and Y (log positions 0 and 1) and is still in
  // flight when thread 1's body runs. Thread 1 writes W, in Y's line and so
  // in Y's 64 B conflict unit, which makes its loads of Y consult the write
  // index. Y's slot holds 1: past thread 1's one-entry log at the first
  // load, inside its two-entry log (at Z's entry) at the second.
  const model::MachineConfig config =
      without_other_aborts(model::has_c(), HtmKind::kRtm);
  mem::SimHeap heap;
  DesMachine m(config, HtmKind::kRtm, 2, heap);
  ASSERT_EQ(m.conflict_shift(), 6u);
  auto far = heap.alloc<std::uint64_t>(16, "far");  // X, Z: other lines
  auto line = heap.alloc<std::uint64_t>(8, "line");
  std::uint64_t& x = far[0];
  std::uint64_t& z = far[8];
  std::uint64_t& y = line[0];
  std::uint64_t& w = line[1];
  ASSERT_EQ(heap.line_of(&y), heap.line_of(&w));
  y = 5;
  int bodies_run = 0;
  bool thread0_first = false;
  std::uint64_t y_past_log = 0;
  std::uint64_t y_inside_log = 0;
  ScriptWorker w0({TxnBody([&](Txn& tx) {
    if (bodies_run++ == 0) thread0_first = true;
    tx.store(x, std::uint64_t{1});
    tx.store(y, std::uint64_t{2});
  })});
  ScriptWorker w1({TxnBody([&](Txn& tx) {
    const bool first = bodies_run++ == 1;
    tx.store(w, std::uint64_t{3});
    const std::uint64_t past = tx.load(y);
    tx.store(z, std::uint64_t{4});
    const std::uint64_t inside = tx.load(y);
    if (first) {
      y_past_log = past;
      y_inside_log = inside;
    }
  })});
  m.set_worker(0, &w0);
  m.set_worker(1, &w1);
  m.run();
  ASSERT_TRUE(thread0_first);
  EXPECT_EQ(y_past_log, 5u);
  EXPECT_EQ(y_inside_log, 5u);
  EXPECT_EQ(y, 2u);  // both committed in the end, thread 0's Y included
  EXPECT_EQ(w, 3u);
}

TEST(WriteLog, SerializedBodiesLeaveNoStaleHit) {
  // X, Y and W share one line. A serialized body commits X; another stores
  // Y and then aborts explicitly, which on the serialized path drops its
  // log. Both left their word's slot at 0. A later speculative body puts W
  // at log position 0 and must still read X and Y from committed memory.
  const model::MachineConfig config =
      without_other_aborts(model::has_c(), HtmKind::kRtm);
  mem::SimHeap heap;
  DesMachine m(config, HtmKind::kRtm, 1, heap);
  auto line = heap.alloc<std::uint64_t>(8);
  std::uint64_t& x = line[0];
  std::uint64_t& y = line[1];
  std::uint64_t& w = line[2];
  ASSERT_EQ(heap.line_of(&x), heap.line_of(&w));
  std::uint64_t seen_x = 0;
  std::uint64_t seen_y = 1;
  ScriptWorker worker({TxnBody([&](Txn& tx) {
                         if (!tx.serialized()) tx.abort();
                         tx.store(x, std::uint64_t{7});
                       }),
                       TxnBody([&](Txn& tx) {
                         if (!tx.serialized()) tx.abort();
                         tx.store(y, std::uint64_t{99});
                         tx.abort();  // a no-op completion when serialized
                       }),
                       TxnBody([&](Txn& tx) {
                         tx.store(w, std::uint64_t{3});
                         seen_x = tx.load(x);
                         seen_y = tx.load(y);
                       })});
  m.set_worker(0, &worker);
  m.run();
  EXPECT_EQ(m.stats().serialized, 2u);
  EXPECT_EQ(m.stats().committed, 1u);
  EXPECT_EQ(seen_x, 7u);
  EXPECT_EQ(seen_y, 0u);
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(y, 0u);
  EXPECT_EQ(w, 3u);
}

/// Dispatches the first `events` picks in frontier order, then stops.
class StopAfter : public sim::ScheduleController {
 public:
  explicit StopAfter(int events) : left_(events) {}
  std::size_t choose(std::span<const sim::Choice>) override {
    if (left_ == 0) return kStopRun;
    --left_;
    return 0;
  }

 private:
  int left_;
};

TEST(WriteLog, RestoreLeavesNoStaleHit) {
  // A body buffers X at log position 0 and the machine is restored before
  // it commits. The restored run's body puts W, in X's line, at position 0
  // and must read X from committed memory.
  mem::SimHeap heap;
  DesMachine m(model::has_c(), HtmKind::kRtm, 1, heap);
  auto line = heap.alloc<std::uint64_t>(8);
  std::uint64_t& x = line[0];
  std::uint64_t& w = line[1];
  ASSERT_EQ(heap.line_of(&x), heap.line_of(&w));
  util::BlobWriter core;
  util::BlobIo save(core);
  m.durable(save);
  std::uint64_t seen_x = 1;
  ScriptWorker worker({TxnBody([&](Txn& tx) {
                         tx.store(x, std::uint64_t{42});
                       }),
                       TxnBody([&](Txn& tx) {
                         tx.store(w, std::uint64_t{3});
                         seen_x = tx.load(x);
                       })});
  m.set_worker(0, &worker);
  StopAfter one(1);
  m.run_controlled(one);  // the first body ran; its commit is pending
  EXPECT_EQ(x, 0u);
  util::BlobReader reader(core.bytes());
  util::BlobIo restore(reader);
  m.durable(restore);
  m.run();  // the restored machine stages the second body
  EXPECT_EQ(seen_x, 0u);
  EXPECT_EQ(x, 0u);
  EXPECT_EQ(w, 3u);
}

TEST(WriteLog, CommitWriteBackFollowsFirstWriteOrder) {
  for (const CostCase& c : kCostCases) {
    SCOPED_TRACE(describe(c));
    const model::MachineConfig config = without_other_aborts(*c.config, c.kind);
    mem::SimHeap heap;
    DesMachine m(config, c.kind, 1, heap);
    auto words = heap.alloc<std::uint64_t>(64);
    WriteRecorder recorder;
    m.set_write_observer(&recorder);
    // Rewrites do not move a word: first writes order c, a, b.
    const std::size_t a = 3, b = 40, cw = 17;
    RepeatTxnWorker w(1, [&](Txn& tx) {
      if (c.serialized && !tx.serialized()) tx.abort();
      tx.store(words[cw], std::uint64_t{1});
      tx.store(words[a], std::uint64_t{2});
      tx.store(words[b], std::uint64_t{3});
      tx.store(words[a], std::uint64_t{4});
      tx.store(words[cw], std::uint64_t{5});
    });
    m.set_worker(0, &w);
    m.run();
    const auto at = [&](std::size_t i) {
      return std::pair<std::uint64_t, std::uint32_t>{
          heap.offset_of(&words[i]), 8u};
    };
    EXPECT_EQ(recorder.writes,
              (std::vector<std::pair<std::uint64_t, std::uint32_t>>{
                  at(cw), at(a), at(b)}));
    EXPECT_EQ(words[cw], 5u);
    EXPECT_EQ(words[a], 4u);
    EXPECT_EQ(words[b], 3u);
  }
}

TEST(WriteLog, MachineWithoutTransactionsAllocatesNoIndex) {
  mem::SimHeap heap;
  DesMachine m(model::bgq(), HtmKind::kBgqShort, 4, heap);
  auto* counter = heap.alloc_one<std::uint64_t>(0);
  RepeatOpWorker w(8, [counter](ThreadCtx& ctx) {
    ctx.fetch_add(*counter, std::uint64_t{1});
  });
  for (std::uint32_t t = 0; t < 4; ++t) m.set_worker(t, &w);
  m.run();
  EXPECT_EQ(*counter, 8u);
  // The table's tags and write index are sized by its cover alone.
  EXPECT_EQ(m.footprint_table().covered_bytes(), 0u);

  RepeatTxnWorker txn(1, [counter](Txn& tx) {
    tx.fetch_add(*counter, std::uint64_t{1});
  });
  m.set_worker(0, &txn);
  m.run();
  EXPECT_GE(m.footprint_table().covered_bytes(), heap.used_bytes());
}

}  // namespace
}  // namespace aam::htm
