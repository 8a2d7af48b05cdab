// Property-based tests: randomized workloads checked against oracles.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "algorithms/registry.hpp"
#include "analysis/signature.hpp"
#include "check/check.hpp"
#include "core/runtime.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "htm/des_engine.hpp"
#include "mem/footprint.hpp"
#include "util/rng.hpp"

namespace aam {
namespace {

using model::HtmKind;

// ---------------------------------------------------------------------------
// DES transactions are serializable: a random mix of read-modify-write
// transactions over a small array must end in a state reachable by SOME
// serial order — for commutative increments, that simply means no update
// is lost, for every machine model and thread count.
// ---------------------------------------------------------------------------

struct SerializabilityCase {
  const model::MachineConfig* config;
  HtmKind kind;
  int threads;
};

class SerializabilityTest
    : public ::testing::TestWithParam<SerializabilityCase> {};

TEST_P(SerializabilityTest, RandomIncrementsAreNeverLost) {
  const auto& param = GetParam();
  mem::SimHeap heap;
  htm::DesMachine machine(*param.config, param.kind, param.threads, heap,
                          /*seed=*/1234);
  constexpr int kSlots = 32;
  auto slots = heap.alloc<std::uint64_t>(kSlots * 8);

  class RandomTxnWorker : public htm::Worker {
   public:
    RandomTxnWorker(std::span<std::uint64_t> slots, util::Rng rng, int txns)
        : slots_(slots), rng_(rng), left_(txns) {}
    bool next(htm::ThreadCtx& ctx) override {
      if (left_ == 0) return false;
      --left_;
      // Each transaction increments 1-4 random slots.
      targets_.clear();
      const int k = 1 + static_cast<int>(rng_.next_below(4));
      for (int i = 0; i < k; ++i) {
        targets_.push_back(rng_.next_below(kSlots) * 8);
      }
      ++planned_;
      ctx.stage_transaction([this](htm::Txn& tx) {
        for (std::uint64_t t : targets_) {
          tx.fetch_add(slots_[t], std::uint64_t{1});
        }
      });
      return true;
    }
    std::uint64_t planned_increments = 0;
    std::vector<std::uint64_t> all_targets;

    // Record the planned multiset of increments for the oracle.
    std::vector<std::uint64_t> targets_;
    int planned_ = 0;

   private:
    std::span<std::uint64_t> slots_;
    util::Rng rng_;
    int left_ = 0;
  };

  // Count expected increments by replaying each worker's RNG.
  const util::Rng root(777);
  std::uint64_t expected_total = 0;
  for (int t = 0; t < param.threads; ++t) {
    util::Rng rng = root.fork(static_cast<std::uint64_t>(t));
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t k = 1 + rng.next_below(4);
      expected_total += k;
      for (std::uint64_t j = 0; j < k; ++j) rng.next_below(kSlots);
    }
  }

  std::vector<std::unique_ptr<RandomTxnWorker>> workers;
  for (int t = 0; t < param.threads; ++t) {
    workers.push_back(std::make_unique<RandomTxnWorker>(
        slots, root.fork(static_cast<std::uint64_t>(t)), 40));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  machine.run();

  std::uint64_t total = 0;
  for (int s = 0; s < kSlots; ++s) total += slots[s * 8];
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(machine.stats().completed(),
            static_cast<std::uint64_t>(param.threads) * 40u);
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndThreads, SerializabilityTest,
    ::testing::Values(
        SerializabilityCase{&model::has_c(), HtmKind::kRtm, 1},
        SerializabilityCase{&model::has_c(), HtmKind::kRtm, 8},
        SerializabilityCase{&model::has_c(), HtmKind::kHle, 8},
        SerializabilityCase{&model::has_p(), HtmKind::kRtm, 24},
        SerializabilityCase{&model::has_p(), HtmKind::kHle, 24},
        SerializabilityCase{&model::bgq(), HtmKind::kBgqShort, 16},
        SerializabilityCase{&model::bgq(), HtmKind::kBgqShort, 64},
        SerializabilityCase{&model::bgq(), HtmKind::kBgqLong, 64}),
    [](const auto& info) {
      std::string name = info.param.config->name + "_" +
                         model::to_string(info.param.kind) + "_T" +
                         std::to_string(info.param.threads);
      std::erase(name, '-');
      return name;
    });

// ---------------------------------------------------------------------------
// Fuzz EpochSet / WordMap against STL references.
// ---------------------------------------------------------------------------

TEST(PropertyEpochSet, MatchesStdSetUnderRandomOps) {
  util::Rng rng(42);
  mem::EpochSet set(8);
  std::unordered_set<std::uint64_t> reference;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t key = rng.next_below(300);
      const bool inserted = set.insert(key);
      const bool ref_inserted = reference.insert(key).second;
      ASSERT_EQ(inserted, ref_inserted) << "round " << round << " key " << key;
    }
    ASSERT_EQ(set.size(), reference.size());
    for (std::uint64_t key = 0; key < 300; ++key) {
      ASSERT_EQ(set.contains(key), reference.count(key) > 0) << key;
    }
    set.clear();
    reference.clear();
  }
}

TEST(PropertyWordMap, MatchesStdMapUnderRandomOps) {
  util::Rng rng(43);
  mem::WordMap map(8);
  std::unordered_map<std::uintptr_t, std::uint64_t> reference;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::uintptr_t key = rng.next_below(128) * 8;
      const std::uint64_t value = rng();
      map.insert_or_assign(key, value);
      reference[key] = value;
    }
    ASSERT_EQ(map.size(), reference.size());
    for (const auto& [key, value] : reference) {
      std::uint64_t got = 0;
      ASSERT_TRUE(map.lookup(key, got));
      ASSERT_EQ(got, value);
    }
    std::uint64_t got = 0;
    ASSERT_FALSE(map.lookup(129 * 8, got));
    map.clear();
    reference.clear();
  }
}

// ---------------------------------------------------------------------------
// Transactional sub-word splicing never corrupts neighbours: random typed
// stores through Txn vs a plain reference array.
// ---------------------------------------------------------------------------

TEST(PropertyTxnWords, SubWordStoresMatchReferenceModel) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 1, heap, 7);
  constexpr std::size_t kWords = 64;
  auto data = heap.alloc<std::uint32_t>(kWords * 2);  // 2 u32 per word
  std::vector<std::uint32_t> reference(kWords * 2, 0);

  class Fuzzer : public htm::Worker {
   public:
    Fuzzer(std::span<std::uint32_t> data, std::vector<std::uint32_t>& ref,
           util::Rng rng, int rounds)
        : data_(data), ref_(ref), rng_(rng), left_(rounds) {}
    bool next(htm::ThreadCtx& ctx) override {
      if (left_ == 0) return false;
      --left_;
      // Plan 8 random u32 stores; apply to the reference model too.
      plan_.clear();
      for (int i = 0; i < 8; ++i) {
        const std::size_t idx = rng_.next_below(data_.size());
        const auto value = static_cast<std::uint32_t>(rng_());
        plan_.emplace_back(idx, value);
        ref_[idx] = value;
      }
      ctx.stage_transaction([this](htm::Txn& tx) {
        for (const auto& [idx, value] : plan_) {
          tx.store(data_[idx], value);
        }
      });
      return true;
    }

   private:
    std::span<std::uint32_t> data_;
    std::vector<std::uint32_t>& ref_;
    util::Rng rng_;
    int left_;
    std::vector<std::pair<std::size_t, std::uint32_t>> plan_;
  };

  Fuzzer fuzzer(data, reference, util::Rng(99), 500);
  machine.set_worker(0, &fuzzer);
  machine.run();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(data[i], reference[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Generator properties.
// ---------------------------------------------------------------------------

class KroneckerScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(KroneckerScaleTest, SizeSkewAndDeterminism) {
  const int scale = GetParam();
  util::Rng r1(5), r2(5);
  graph::KroneckerParams p;
  p.scale = scale;
  p.edge_factor = 8;
  const graph::Graph a = graph::kronecker(p, r1);
  const graph::Graph b = graph::kronecker(p, r2);
  EXPECT_EQ(a.num_vertices(), graph::Vertex{1} << scale);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  const auto s = graph::degree_stats(a);
  // Power-law signature: the top 1% of vertices hold a large edge share.
  EXPECT_GT(s.top1pct_edge_share, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Scales, KroneckerScaleTest,
                         ::testing::Values(10, 12, 14));

TEST(PropertyErdosRenyi, EdgeCountConcentratesAroundExpectation) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const graph::Vertex n = 3000;
    const double p = 0.004;
    const auto edges = graph::erdos_renyi_edges(n, p, rng);
    const double expected = p * n * (n - 1) / 2.0;
    EXPECT_NEAR(static_cast<double>(edges.size()), expected,
                5 * std::sqrt(expected));
  }
}

// ---------------------------------------------------------------------------
// AamRuntime under randomized batch sizes: results never depend on M.
// ---------------------------------------------------------------------------

class BatchInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchInvarianceTest, HistogramIndependentOfBatchSize) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap, 5);
  constexpr std::uint64_t kItems = 5000;
  constexpr std::uint64_t kBuckets = 64;
  auto hist = heap.alloc<std::uint64_t>(kBuckets * 8);
  core::AamRuntime rt(machine, {.batch = GetParam()});
  rt.for_each(kItems, [&](auto& access, std::uint64_t i) {
    access.fetch_add(hist[(util::mix64(i) % kBuckets) * 8], std::uint64_t{1});
  });
  std::uint64_t total = 0;
  for (std::uint64_t b = 0; b < kBuckets; ++b) total += hist[b * 8];
  EXPECT_EQ(total, kItems);
  // Spot-check one bucket against the deterministic hash.
  std::uint64_t expect0 = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    if (util::mix64(i) % kBuckets == 0) ++expect0;
  }
  EXPECT_EQ(hist[0], expect0);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchInvarianceTest,
                         ::testing::Values(1, 3, 17, 128, 1000));

// ---------------------------------------------------------------------------
// Dynamic footprints are contained in the static effect signatures: under
// --check=all-equivalent instrumentation, every algorithm on every
// mechanism stays inside its operator's statically derived may-read/
// may-write label sets (no static-escape violations), and the per-batch
// word maxima the checker observes are bounded by `batch size x per-item
// static element count` evaluated at the graph's max degree (chains
// bounded by |V|). Two machine models cover both conflict granularities.
// ---------------------------------------------------------------------------

struct StaticContainmentCase {
  const model::MachineConfig* config;
  HtmKind kind;
  int threads;
  core::Mechanism mechanism;
};

class StaticContainmentTest
    : public ::testing::TestWithParam<StaticContainmentCase> {};

TEST_P(StaticContainmentTest, DynamicFootprintWithinStaticSignature) {
  const auto& param = GetParam();
  util::Rng rng(11);
  graph::KroneckerParams gp;
  gp.scale = 10;
  gp.edge_factor = 4;
  algorithms::Inputs in;
  in.g = graph::kronecker(gp, rng);
  util::Rng wrng(12);
  const auto wedges = graph::kronecker_edges(gp, wrng);
  const auto weights = graph::random_weights(wedges.size(), 1.0f, 100.0f, wrng);
  in.wg = graph::Graph::from_weighted_edges(
      in.g.num_vertices(), wedges, weights, /*undirected=*/true);
  in.root = graph::pick_nonisolated_vertex(in.g);
  in.st_t = graph::pick_nonisolated_vertex(in.g, /*salt=*/1);
  if (in.root == in.st_t) in.st_t = in.root == 0 ? 1 : 0;
  in.sssp_source = graph::pick_nonisolated_vertex(in.wg);
  in.pr_iterations = 2;
  const auto dmax =
      static_cast<int>(std::max(graph::degree_stats(in.g).max,
                                graph::degree_stats(in.wg).max));
  const auto n = static_cast<int>(in.g.num_vertices());

  const auto signatures = analysis::analyze_all();
  auto signature_of = [&](core::OperatorId op) -> const auto& {
    return signatures[static_cast<std::size_t>(op) - 1];  // no kUnknown slot
  };

  // Runs one algorithm under full checking on a fresh machine and verifies
  // both containment properties.
  auto audit = [&](const char* what, auto&& run) {
    mem::SimHeap heap;
    htm::DesMachine machine(*param.config, param.kind, param.threads, heap,
                            /*seed=*/3);
    check::Checker checker(machine,
                           {.races = true, .serial = true, .footprint = true});
    run(machine, checker);
    std::ostringstream report;
    checker.report(report);
    EXPECT_TRUE(checker.passed()) << what << ": " << report.str();
    for (core::OperatorId op : core::all_operator_ids()) {
      const auto& stats = checker.footprint_stats(op);
      if (stats.batches == 0) continue;
      const auto& sig = signature_of(op);
      ASSERT_EQ(sig.op, op);
      // Distinct 8-byte words <= distinct elements (elements are >= 4
      // bytes), so the static element bound also bounds the word count.
      EXPECT_LE(stats.max_read_words,
                stats.items_at_max_read * sig.read_elems(dmax, n))
          << what << " reads of " << core::to_string(op);
      EXPECT_LE(stats.max_write_words,
                stats.items_at_max_write * sig.write_elems(dmax, n))
          << what << " writes of " << core::to_string(op);
    }
  };

  for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
    audit(algo.name, [&](htm::DesMachine& machine, check::Checker& checker) {
      core::ExecConfig exec = algo.exec;
      exec.batch = std::min(exec.batch, 8);
      exec.mechanism = param.mechanism;
      exec.recorder = &checker;
      algo.run(machine, in, exec);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndMechanisms, StaticContainmentTest,
    ::testing::Values(
        StaticContainmentCase{&model::bgq(), HtmKind::kBgqShort, 16,
                              core::Mechanism::kHtmCoarsened},
        StaticContainmentCase{&model::bgq(), HtmKind::kBgqShort, 16,
                              core::Mechanism::kAtomicOps},
        StaticContainmentCase{&model::bgq(), HtmKind::kBgqShort, 16,
                              core::Mechanism::kFineLocks},
        StaticContainmentCase{&model::has_c(), HtmKind::kRtm, 8,
                              core::Mechanism::kHtmCoarsened},
        StaticContainmentCase{&model::has_c(), HtmKind::kRtm, 8,
                              core::Mechanism::kSerialLock},
        StaticContainmentCase{&model::has_c(), HtmKind::kRtm, 8,
                              core::Mechanism::kStm}),
    [](const auto& info) {
      std::string name = info.param.config->name + "_" +
                         model::to_string(info.param.kind) + "_" +
                         core::to_string(info.param.mechanism);
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace aam
