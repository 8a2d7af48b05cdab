// Executor-layer tests: the Mechanism registry round-trips, and every
// mechanism — driving the SAME single-element operator formulations —
// produces equivalent algorithm results on a fixed seed and graph.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "core/executor.hpp"
#include "core/executor_impl.hpp"
#include "core/runtime.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace aam {
namespace {

using graph::Graph;
using graph::Vertex;
using model::HtmKind;

// ---------------------------------------------------------- registry

TEST(Mechanism, ToStringParseRoundTrip) {
  for (const core::Mechanism m : core::all_mechanisms()) {
    const auto back = core::parse_mechanism(core::to_string(m));
    ASSERT_TRUE(back.has_value()) << core::to_string(m);
    EXPECT_EQ(*back, m);
  }
}

TEST(Mechanism, ParseRejectsUnknownNames) {
  EXPECT_FALSE(core::parse_mechanism("nope").has_value());
  EXPECT_FALSE(core::parse_mechanism("").has_value());
  EXPECT_FALSE(core::parse_mechanism("HTM").has_value());  // case-sensitive
  EXPECT_FALSE(core::parse_mechanism("htm ").has_value());
}

TEST(Mechanism, RegistryCoversFiveMechanisms) {
  EXPECT_EQ(core::all_mechanisms().size(), 5u);
}

TEST(Mechanism, NamesListsEveryMechanismCommaSeparated) {
  const std::string names = core::mechanism_names();
  for (const core::Mechanism m : core::all_mechanisms()) {
    EXPECT_NE(names.find(core::to_string(m)), std::string::npos)
        << core::to_string(m);
  }
  EXPECT_NE(names.find(", "), std::string::npos);
}

TEST(Mechanism, ErrorNamesFlagOffendingValueAndValidSpellings) {
  const std::string msg = core::mechanism_selection_error("mechanism", "hmt");
  EXPECT_NE(msg.find("--mechanism"), std::string::npos) << msg;
  EXPECT_NE(msg.find("hmt"), std::string::npos) << msg;
  for (const core::Mechanism m : core::all_mechanisms()) {
    EXPECT_NE(msg.find(core::to_string(m)), std::string::npos)
        << core::to_string(m);
  }
}

// ------------------------------------------------ executor counters

TEST(Executor, AtomicOpsCountsAtomicsNotTransactions) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(256);
  core::AamRuntime rt(machine,
                      {.batch = 8, .mechanism = core::Mechanism::kAtomicOps});
  rt.for_each(256, [&](auto& access, std::uint64_t i) {
    access.fetch_add(data[i], std::uint64_t{1});
  });
  for (std::uint64_t i = 0; i < 256; ++i) EXPECT_EQ(data[i], 1u);
  const auto s = machine.stats();
  EXPECT_EQ(s.started, 0u);  // no transactions under plain atomics
  EXPECT_GE(s.atomic_acc, 256u);
}

TEST(Executor, HtmRunsTransactionsNotAtomics) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(256);
  core::AamRuntime rt(
      machine, {.batch = 8, .mechanism = core::Mechanism::kHtmCoarsened});
  rt.for_each(256, [&](auto& access, std::uint64_t i) {
    access.fetch_add(data[i], std::uint64_t{1});
  });
  for (std::uint64_t i = 0; i < 256; ++i) EXPECT_EQ(data[i], 1u);
  EXPECT_GE(machine.stats().completed(), 256u / 8u);
}

TEST(Executor, EveryMechanismAppliesEveryItemExactlyOnce) {
  for (const core::Mechanism m : core::all_mechanisms()) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
    auto data = heap.alloc<std::uint64_t>(500);
    core::AamRuntime rt(machine, {.batch = 8, .mechanism = m});
    rt.for_each(500, [&](auto& access, std::uint64_t i) {
      access.fetch_add(data[i], std::uint64_t{1});
    });
    for (std::uint64_t i = 0; i < 500; ++i) {
      ASSERT_EQ(data[i], 1u) << core::to_string(m) << " item " << i;
    }
  }
}

// ------------------------------------------------------ stm executor

/// Runs `op` over [0, count) as ONE batch of the kStm executor on a
/// single-thread BG/Q machine, through make_executor + execute_batch, and
/// keeps the committed emissions and the thread-clock advance.
struct StmBatch {
  mem::SimHeap heap;
  htm::DesMachine machine{model::bgq(), HtmKind::kBgqShort, 1, heap};
  std::unique_ptr<core::ActivityExecutor> executor = core::make_executor(
      machine, {.batch = 8, .mechanism = core::Mechanism::kStm});
  std::vector<std::uint64_t> emitted;
  double elapsed_ns = 0;

  template <typename Op>
  void run(std::uint64_t count, Op op) {
    class OneBatch final : public htm::Worker {
     public:
      OneBatch(StmBatch& b, std::uint64_t count, Op& op)
          : b_(b), count_(count), op_(op) {}
      bool next(htm::ThreadCtx& ctx) override {
        if (ran_) return false;
        ran_ = true;
        const double start = ctx.now();
        core::execute_batch(
            *b_.executor, ctx, count_, op_,
            [this](htm::ThreadCtx&, std::span<const std::uint64_t> out) {
              b_.emitted.assign(out.begin(), out.end());
            });
        b_.elapsed_ns = ctx.now() - start;
        return true;
      }

     private:
      StmBatch& b_;
      std::uint64_t count_;
      Op& op_;
      bool ran_ = false;
    };
    OneBatch worker(*this, count, op);
    machine.set_worker(0, &worker);
    machine.run();
  }
};

TEST(StmExecutor, BatchReadsItsOwnWrites) {
  StmBatch b;
  auto x = b.heap.alloc<std::uint64_t>(1);
  x[0] = 1;
  b.run(2, [&](auto& access, std::uint64_t i) {
    if (i == 0) access.store(x[0], std::uint64_t{7});
    access.emit(access.load(x[0]));
    if (i == 1) access.store(x[0], std::uint64_t{8});
  });
  EXPECT_EQ(b.emitted, (std::vector<std::uint64_t>{7, 7}));
  EXPECT_EQ(x[0], 8u);
}

TEST(StmExecutor, SubWordFieldsSharingAWordUpdateIndependently) {
  StmBatch b;
  auto pair = b.heap.alloc<std::uint32_t>(2);  // 8-aligned: one word
  pair[0] = 1;
  pair[1] = 2;
  b.run(2, [&](auto& access, std::uint64_t i) {
    if (i == 0) access.store(pair[0], std::uint32_t{100});
    if (i == 1) {
      access.store(pair[1], std::uint32_t{200});
      access.emit(access.load(pair[0]));
    }
  });
  EXPECT_EQ(b.emitted, (std::vector<std::uint64_t>{100}));
  EXPECT_EQ(pair[0], 100u);
  EXPECT_EQ(pair[1], 200u);
}

TEST(StmExecutor, DoubleValuesRoundTrip) {
  StmBatch b;
  auto rank = b.heap.alloc<double>(1);
  rank[0] = 0.25;
  b.run(1, [&](auto& access, std::uint64_t) {
    access.store(rank[0], access.load(rank[0]) + 0.5);
    access.fetch_add(rank[0], 0.125);
    access.emit(access.cas(rank[0], 0.875, 1.5) ? 1u : 0u);
  });
  EXPECT_EQ(b.emitted, (std::vector<std::uint64_t>{1}));
  EXPECT_DOUBLE_EQ(rank[0], 1.5);
}

TEST(StmExecutor, FetchAddReturnsTheOldValue) {
  StmBatch b;
  auto counter = b.heap.alloc<std::uint64_t>(1);
  counter[0] = 5;
  b.run(3, [&](auto& access, std::uint64_t) {
    access.emit(access.fetch_add(counter[0], std::uint64_t{2}));
  });
  EXPECT_EQ(b.emitted, (std::vector<std::uint64_t>{5, 7, 9}));
  EXPECT_EQ(counter[0], 11u);
}

TEST(StmExecutor, ChargesTheTl2CostModel) {
  StmBatch b;
  auto src = b.heap.alloc<std::uint64_t>(4);
  auto dst = b.heap.alloc<std::uint64_t>(4);
  auto flag = b.heap.alloc<std::uint32_t>(4);
  auto sum = b.heap.alloc<std::uint64_t>(1);
  for (std::uint64_t i = 0; i < 4; ++i) src[i] = i + 1;
  // Per item: 4 loads (load, fetch_add, two cas) and 3 writes (store,
  // fetch_add, the successful cas); the failing cas writes nothing.
  b.run(4, [&](auto& access, std::uint64_t i) {
    const std::uint64_t v = access.load(src[i]);
    access.store(dst[i], v);
    access.fetch_add(sum[0], v);
    access.cas(flag[i], std::uint32_t{0}, std::uint32_t{1});
    access.cas(flag[i], std::uint32_t{0}, std::uint32_t{2});
  });
  EXPECT_EQ(sum[0], 10u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dst[i], i + 1);
    EXPECT_EQ(flag[i], 1u);
  }

  // One thread: every modeled atomic starts at the thread's own clock.
  const model::AtomicCosts& a = model::bgq().atomics;
  const double loads = 16, writes = 12;
  const double bookkeeping = 4 * a.load_ns;
  const double expected =
      a.load_ns  // begin: version-clock load
      + loads * (3 * a.load_ns + bookkeeping) +
      writes * (a.load_ns + bookkeeping) +
      writes * (a.cas_ns + a.store_ns + a.store_ns)  // orec lock, write
                                                     // back, release
      + a.load_ns + a.cas_ns;                        // version-clock bump
  EXPECT_DOUBLE_EQ(b.elapsed_ns, expected);
  EXPECT_EQ(b.machine.stats().atomic_cas, 12u + 1u);
  EXPECT_EQ(b.machine.stats().started, 0u);
}

// ------------------------------------- cross-mechanism equivalence

Graph fixed_graph() {
  util::Rng rng(17);
  graph::KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  return graph::kronecker(p, rng);
}

TEST(ExecutorEquivalence, BfsTreeValidUnderEveryMechanism) {
  const Graph g = fixed_graph();
  const Vertex root = graph::pick_nonisolated_vertex(g);
  const std::uint64_t reachable = graph::reachable_count(g, root);
  for (const core::Mechanism m : core::all_mechanisms()) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 8, heap, 9);
    algorithms::BfsOptions options;
    options.root = root;
    options.mechanism = m;
    options.batch = 4;
    const auto r = algorithms::run_bfs(machine, g, options);
    EXPECT_TRUE(algorithms::validate_bfs_tree(g, root, r.parent))
        << core::to_string(m);
    EXPECT_EQ(r.vertices_visited, reachable) << core::to_string(m);
  }
}

TEST(ExecutorEquivalence, PageRankMatchesReferenceUnderEveryMechanism) {
  const Graph g = fixed_graph();
  const auto reference = algorithms::pagerank_reference(g, 5, 0.85);
  for (const core::Mechanism m : core::all_mechanisms()) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap, 9);
    algorithms::PageRankOptions options;
    options.iterations = 5;
    options.mechanism = m;
    options.batch = 4;
    const auto r = algorithms::run_pagerank(machine, g, options);
    ASSERT_EQ(r.rank.size(), reference.size());
    for (std::size_t v = 0; v < reference.size(); ++v) {
      ASSERT_NEAR(r.rank[v], reference[v], 1e-9)
          << core::to_string(m) << " vertex " << v;
    }
  }
}

TEST(ExecutorEquivalence, ColoringValidUnderEveryMechanism) {
  const Graph g = fixed_graph();
  for (const core::Mechanism m : core::all_mechanisms()) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 8, heap, 9);
    algorithms::ColoringOptions options;
    options.mechanism = m;
    options.batch = 4;
    options.seed = 21;
    const auto r = algorithms::run_boman_coloring(machine, g, options);
    EXPECT_TRUE(algorithms::validate_coloring(g, r.color))
        << core::to_string(m);
    EXPECT_GT(r.colors_used, 0u) << core::to_string(m);
  }
}

}  // namespace
}  // namespace aam
