// Substrate microbenchmarks (google-benchmark, wall-clock).
//
// Unlike the figure harnesses — which report *simulated* time from the
// calibrated machine models — these measure the real-world throughput of
// the library's own building blocks: the epoch-cleared footprint
// structures, the event queue, the RNG, the threaded STM engine, and the
// discrete-event machine's dispatch rate.

#include <benchmark/benchmark.h>

#include <thread>

#include "htm/des_engine.hpp"
#include "htm/stm_engine.hpp"
#include "mem/footprint.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace aam;

void BM_RngNext(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngNext);

void BM_RngNextBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(12345));
}
BENCHMARK(BM_RngNextBelow);

void BM_EpochSetInsert(benchmark::State& state) {
  mem::EpochSet set(1024);
  std::uint64_t key = 0;
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    set.clear();
    for (std::uint64_t i = 0; i < batch; ++i) set.insert(key + i * 7);
    key += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EpochSetInsert)->Arg(16)->Arg(256);

void BM_WordMapWriteBuffer(benchmark::State& state) {
  mem::WordMap map(1024);
  const auto batch = static_cast<std::uintptr_t>(state.range(0));
  for (auto _ : state) {
    map.clear();
    for (std::uintptr_t i = 0; i < batch; ++i) {
      map.insert_or_assign(0x10000 + i * 8, i);
    }
    std::uint64_t v = 0;
    benchmark::DoNotOptimize(map.lookup(0x10000, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WordMapWriteBuffer)->Arg(16)->Arg(256);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  util::Rng rng(3);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.push(rng.next_double() * 1000.0, 0, 0);
    }
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_FootprintTracker(benchmark::State& state) {
  mem::FootprintTable table(/*conflict_shift=*/6);
  table.cover(64 * 3);
  mem::FootprintTracker tracker;
  tracker.configure(table, model::CacheGeometry{64, 64, 8}, 4096);
  for (auto _ : state) {
    tracker.begin_attempt();
    for (mem::LineId l = 0; l < 64; ++l) {
      benchmark::DoNotOptimize(tracker.add_write(l * 3));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_FootprintTracker);

void BM_StmCounterSingleThread(benchmark::State& state) {
  htm::StmEngine engine;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    engine.atomically([&](htm::StmTxn& tx) {
      tx.fetch_add(counter, std::uint64_t{1});
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StmCounterSingleThread);

void BM_StmDisjointMultiThread(benchmark::State& state) {
  // Threads update disjoint words: measures the STM fast path under real
  // concurrency (no conflicts).
  static htm::StmEngine engine;
  alignas(64) static std::uint64_t slots[16 * 8];
  const auto tid = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    engine.atomically([&](htm::StmTxn& tx) {
      tx.fetch_add(slots[tid * 8], std::uint64_t{1});
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StmDisjointMultiThread)->Threads(1)->Threads(4);

void BM_DesMachineEventRate(benchmark::State& state) {
  // Wall-clock cost per simulated transaction (the figure harnesses'
  // dominant cost): one thread committing small transactions.
  class W : public htm::Worker {
   public:
    std::uint64_t* x = nullptr;
    int left = 0;
    bool next(htm::ThreadCtx& ctx) override {
      if (left == 0) return false;
      --left;
      ctx.stage_transaction([this](htm::Txn& tx) {
        tx.fetch_add(*x, std::uint64_t{1});
      });
      return true;
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    mem::SimHeap heap(1 << 16);
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 1, heap);
    W w;
    w.x = heap.alloc_one<std::uint64_t>(0);
    w.left = 1000;
    machine.set_worker(0, &w);
    state.ResumeTiming();
    machine.run();
    benchmark::DoNotOptimize(machine.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_DesMachineEventRate);

}  // namespace

BENCHMARK_MAIN();
