// aam::analysis tests: the abstract interpreter's closed-form signatures
// match hand derivations for every operator body, the label contracts and
// capacity bounds project them faithfully, the committed golden reference
// is in sync, and — the load-bearing property — the static capacity-abort
// threshold is conservative: coarsening factors below it never capacity-
// abort dynamically (single-threaded, where the SMT eviction term of the
// machine models is exactly zero and capacity aborts are deterministic).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "algorithms/bfs.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "analysis/capacity.hpp"
#include "analysis/contract.hpp"
#include "analysis/report.hpp"
#include "analysis/signature.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "htm/des_engine.hpp"
#include "util/rng.hpp"

namespace aam {
namespace {

using analysis::EffectSignature;
using analysis::Linear;
using analysis::RegionSignature;
using core::OperatorId;

const RegionSignature& region_of(const EffectSignature& sig,
                                 const std::string& name) {
  for (const RegionSignature& r : sig.regions) {
    if (r.name == name) return r;
  }
  ADD_FAILURE() << "no region " << name;
  static RegionSignature empty;
  return empty;
}

// ------------------------------------------------- closed-form signatures

TEST(Signature, BfsVisitIsOneWordReadOneWordWrite) {
  const auto sig = analysis::analyze(OperatorId::kBfsVisit);
  ASSERT_EQ(sig.regions.size(), 1u);
  EXPECT_EQ(sig.regions[0].label, "bfs.parent");
  EXPECT_EQ(sig.regions[0].read_total(), (Linear{1, 0, 0}));
  EXPECT_EQ(sig.regions[0].write_total(), (Linear{1, 0, 0}));
  EXPECT_FALSE(sig.widened);  // no loop to widen: cas fails at most once
  EXPECT_EQ(sig.paths, 2u);   // cas success / cas failure
}

TEST(Signature, PagerankPushScalesWithDegree) {
  const auto sig = analysis::analyze(OperatorId::kPagerankPush);
  ASSERT_EQ(sig.regions.size(), 2u);
  const auto& old_rank = region_of(sig, "pagerank.old_rank");
  const auto& new_rank = region_of(sig, "pagerank.new_rank");
  EXPECT_EQ(old_rank.label, "pagerank.rank");
  EXPECT_EQ(old_rank.read_total(), (Linear{1, 0, 0}));   // stale own rank
  EXPECT_EQ(old_rank.write_total(), (Linear{0, 0, 0}));  // never written
  EXPECT_EQ(new_rank.read_total(), (Linear{1, 1, 0}));   // self + d accums
  EXPECT_EQ(new_rank.write_total(), (Linear{1, 1, 0}));
  EXPECT_FALSE(sig.widened);
  EXPECT_EQ(sig.paths, 1u);  // fully deterministic body
  EXPECT_EQ(sig.read_elems(16, 8), 18u);
  EXPECT_EQ(sig.write_elems(16, 8), 17u);
}

TEST(Signature, SsspRelaxRetriesTouchOneElement) {
  const auto sig = analysis::analyze(OperatorId::kSsspRelax);
  ASSERT_EQ(sig.regions.size(), 1u);
  // The retry loop re-reads the same element: distinct counts stay 1
  // regardless of the widening bound.
  EXPECT_EQ(sig.regions[0].read_total(), (Linear{1, 0, 0}));
  EXPECT_EQ(sig.regions[0].write_total(), (Linear{1, 0, 0}));
  EXPECT_TRUE(sig.widened);  // the retry loop is cut by the budget
}

TEST(Signature, UfRootWalksAChainReadOnly) {
  const auto sig = analysis::analyze(OperatorId::kUfRoot);
  ASSERT_EQ(sig.regions.size(), 1u);
  EXPECT_EQ(sig.regions[0].label, "boruvka.parent");
  // Start element + one fresh element per widened hop.
  EXPECT_EQ(sig.regions[0].read_total(), (Linear{1, 0, 1}));
  EXPECT_EQ(sig.regions[0].write_total(), (Linear{0, 0, 0}));
  EXPECT_TRUE(sig.widened);
}

TEST(Signature, UfUnionReadsTwoChainsWritesOneRoot) {
  const auto sig = analysis::analyze(OperatorId::kUfUnion);
  ASSERT_EQ(sig.regions.size(), 1u);
  const auto& parent = sig.regions[0];
  using analysis::IndexClass;
  EXPECT_EQ(parent.reads[static_cast<int>(IndexClass::kSelf)],
            (Linear{1, 0, 0}));
  EXPECT_EQ(parent.reads[static_cast<int>(IndexClass::kPeer)],
            (Linear{1, 0, 0}));
  EXPECT_EQ(parent.reads[static_cast<int>(IndexClass::kChain)],
            (Linear{0, 0, 1}));
  // The merge writes exactly one root per path; the class split (peer vs
  // chain, summed by write_total) is the documented per-class-maxima
  // over-approximation. The probe's own element is never the larger root,
  // so the self class stays zero.
  EXPECT_EQ(parent.writes[static_cast<int>(IndexClass::kSelf)],
            (Linear{0, 0, 0}));
  EXPECT_EQ(parent.write_total(), (Linear{2, 0, 0}));
  EXPECT_TRUE(sig.widened);
}

TEST(Signature, ColorAssignReadsNeighborsWritesSelf) {
  const auto sig = analysis::analyze(OperatorId::kColorAssign);
  ASSERT_EQ(sig.regions.size(), 1u);
  EXPECT_EQ(sig.regions[0].read_total(), (Linear{0, 1, 0}));
  EXPECT_EQ(sig.regions[0].write_total(), (Linear{1, 0, 0}));
  EXPECT_FALSE(sig.widened);
  // Every neighbor load forks clash/no-clash at the base probe degree.
  EXPECT_EQ(sig.paths, 1u << sig.probe_degree);
}

TEST(Signature, StVisitTouchesOneWord) {
  const auto sig = analysis::analyze(OperatorId::kStVisit);
  ASSERT_EQ(sig.regions.size(), 1u);
  EXPECT_EQ(sig.regions[0].read_total(), (Linear{1, 0, 0}));
  EXPECT_EQ(sig.regions[0].write_total(), (Linear{1, 0, 0}));
  EXPECT_FALSE(sig.widened);
  EXPECT_EQ(sig.paths, 4u);  // white-claimed / white-lost / own / other wave
}

TEST(Signature, AnalyzeAllCoversEveryOperator) {
  const auto sigs = analysis::analyze_all();
  const auto ids = core::all_operator_ids();
  ASSERT_EQ(sigs.size(), ids.size());
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ(sigs[i].op, ids[i]);
    EXPECT_FALSE(sigs[i].regions.empty())
        << core::to_string(sigs[i].op) << " has no regions";
    EXPECT_GT(sigs[i].read_elems(16, 8), 0u);
  }
}

// -------------------------------------------------------- label contracts

TEST(Contract, ProjectsSignaturesOntoHeapLabels) {
  const auto& bfs = analysis::label_contract(OperatorId::kBfsVisit);
  EXPECT_TRUE(bfs.may_write("bfs.parent"));
  EXPECT_TRUE(bfs.may_read("bfs.parent"));
  EXPECT_FALSE(bfs.may_write("sssp.distance"));
  EXPECT_FALSE(bfs.may_read("coloring.color"));

  // uf_root is read-only; reads are implied by writes for uf_union.
  const auto& root = analysis::label_contract(OperatorId::kUfRoot);
  EXPECT_TRUE(root.may_read("boruvka.parent"));
  EXPECT_FALSE(root.may_write("boruvka.parent"));
  const auto& unite = analysis::label_contract(OperatorId::kUfUnion);
  EXPECT_TRUE(unite.may_write("boruvka.parent"));
  EXPECT_TRUE(unite.may_read("boruvka.parent"));

  // Both pagerank arrays share one label.
  const auto& pr = analysis::label_contract(OperatorId::kPagerankPush);
  EXPECT_TRUE(pr.may_read("pagerank.rank"));
  EXPECT_TRUE(pr.may_write("pagerank.rank"));
  EXPECT_EQ(pr.write_labels_joined(), "pagerank.rank");

  // Untagged batches carry no permissions (and are skipped by the audit).
  const auto& unknown = analysis::label_contract(OperatorId::kUnknown);
  EXPECT_FALSE(unknown.may_read("bfs.parent"));
  EXPECT_TRUE(unknown.read_labels_joined().empty());
}

// -------------------------------------------------------- capacity bounds

TEST(Capacity, BoundsFollowMachineGeometry) {
  const auto sigs = analysis::analyze_all();
  const auto bounds = analysis::capacity_bounds(sigs, 16, 8);
  // machines x their HTM kinds x operators.
  ASSERT_EQ(bounds.size(), (2u + 2u + 2u) * sigs.size());
  bool saw_hasc_bfs = false;
  for (const auto& b : bounds) {
    EXPECT_GE(b.max_safe_coarsening, 1u)
        << b.machine << " " << core::to_string(b.op);
    EXPECT_EQ(b.abort_threshold, b.max_safe_coarsening + 1);
    if (b.machine == "Has-C" && b.kind == model::HtmKind::kRtm &&
        b.op == OperatorId::kBfsVisit) {
      saw_hasc_bfs = true;
      // 64 sets x 8 ways = 512 write lines; one written element per visit.
      EXPECT_EQ(b.write_capacity_lines, 512u);
      EXPECT_EQ(b.max_safe_coarsening, 512u);
      EXPECT_EQ(b.assoc_worst_case, 8u);
    }
  }
  EXPECT_TRUE(saw_hasc_bfs);
}

TEST(Capacity, WiderMachinesNeverShrinkTheBound) {
  const auto sigs = analysis::analyze_all();
  const auto bounds = analysis::capacity_bounds(sigs, 16, 8);
  auto safe_of = [&](const std::string& machine, model::HtmKind kind,
                     OperatorId op) {
    for (const auto& b : bounds) {
      if (b.machine == machine && b.kind == kind && b.op == op) {
        return b.max_safe_coarsening;
      }
    }
    ADD_FAILURE() << "missing bound";
    return std::uint64_t{0};
  };
  for (OperatorId op : core::all_operator_ids()) {
    // BG/Q long mode has strictly more speculative capacity than short
    // mode; Has-P's L1 is twice Has-C's.
    EXPECT_GE(safe_of("BGQ", model::HtmKind::kBgqLong, op),
              safe_of("BGQ", model::HtmKind::kBgqShort, op));
    EXPECT_GE(safe_of("Has-P", model::HtmKind::kRtm, op),
              safe_of("Has-C", model::HtmKind::kRtm, op));
  }
}

// --------------------------------------------------------- golden in sync

TEST(Golden, EffectSignatureReferenceMatches) {
  const auto sigs = analysis::analyze_all();
  const auto bounds = analysis::capacity_bounds(sigs, 16, 8);
  const std::string current = analysis::render_golden(sigs, bounds, 16, 8);
  std::ifstream in(AAM_ANALYSIS_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << AAM_ANALYSIS_GOLDEN;
  std::ostringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), current)
      << "effect signatures drifted; regenerate with\n"
         "  ./build/tools/aam_analyze --write-golden "
         "tests/golden/effect_signatures.txt";
}

// ------------------------------------- static threshold is conservative
//
// Single-threaded (the SMT eviction term of every machine model is scaled
// by (T-1)/(Tmax-1) and is exactly zero at T=1), capacity aborts happen
// iff a transaction's speculative footprint exceeds the HTM buffer. The
// static bound charges one full line per distinct element, which can only
// overestimate the footprint — so any coarsening factor strictly below
// the statically predicted abort threshold must run abort-free. (The
// converse is NOT asserted: factors above the threshold may still run
// abort-free when elements share lines. DESIGN.md §7 discusses the
// asymmetry.)

struct ThresholdCase {
  const model::MachineConfig* config;
  model::HtmKind kind;
};

class CapacityThresholdTest : public ::testing::TestWithParam<ThresholdCase> {
};

TEST_P(CapacityThresholdTest, NoCapacityAbortsBelowStaticThreshold) {
  const auto& param = GetParam();
  util::Rng rng(42);
  graph::KroneckerParams gp;
  gp.scale = 10;
  gp.edge_factor = 4;
  const graph::Graph g = graph::kronecker(gp, rng);
  const auto dmax = static_cast<int>(graph::degree_stats(g).max);
  const auto n = static_cast<int>(g.num_vertices());
  const model::HtmCosts& costs = param.config->htm(param.kind);

  // Worst-case per-item element counts: signature evaluated at the graph's
  // max degree; chain bounded by |V| (a union-find chain cannot be longer).
  auto threshold = [&](OperatorId op) {
    const auto sig = analysis::analyze(op);
    const std::size_t reads = sig.read_elems(dmax, n);
    const std::size_t writes = sig.write_elems(dmax, n);
    std::uint64_t safe = ~std::uint64_t{0};
    if (writes > 0) {
      safe = std::min<std::uint64_t>(
          safe, costs.write_capacity.capacity_lines() / writes);
    }
    if (reads > 0) {
      safe = std::min<std::uint64_t>(safe, costs.read_capacity_lines / reads);
    }
    return safe + 1;
  };

  for (const int batch : {1, 2, 4, 8}) {
    mem::SimHeap heap;
    htm::DesMachine machine(*param.config, param.kind, /*threads=*/1, heap,
                            /*seed=*/7);
    {
      algorithms::BfsOptions options;
      options.root = graph::pick_nonisolated_vertex(g);
      options.mechanism = core::Mechanism::kHtmCoarsened;
      options.batch = batch;
      const auto r = algorithms::run_bfs(machine, g, options);
      if (static_cast<std::uint64_t>(batch) <
          threshold(OperatorId::kBfsVisit)) {
        EXPECT_EQ(r.stats.aborts_capacity, 0u)
            << "bfs batch=" << batch << " on " << param.config->name;
      }
    }
    {
      algorithms::PageRankOptions options;
      options.iterations = 2;
      options.mechanism = core::Mechanism::kHtmCoarsened;
      options.batch = batch;
      const auto r = algorithms::run_pagerank(machine, g, options);
      if (static_cast<std::uint64_t>(batch) <
          threshold(OperatorId::kPagerankPush)) {
        EXPECT_EQ(r.stats.aborts_capacity, 0u)
            << "pagerank batch=" << batch << " on " << param.config->name;
      }
    }
    {
      algorithms::ColoringOptions options;
      options.mechanism = core::Mechanism::kHtmCoarsened;
      options.batch = batch;
      const auto r = algorithms::run_boman_coloring(machine, g, options);
      if (static_cast<std::uint64_t>(batch) <
          threshold(OperatorId::kColorAssign)) {
        EXPECT_EQ(r.stats.aborts_capacity, 0u)
            << "coloring batch=" << batch << " on " << param.config->name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CapacityThresholdTest,
    ::testing::Values(ThresholdCase{&model::bgq(), model::HtmKind::kBgqShort},
                      ThresholdCase{&model::has_c(), model::HtmKind::kRtm}),
    [](const ::testing::TestParamInfo<ThresholdCase>& info) {
      return info.param.config->name == "BGQ" ? std::string("BgqShort")
                                              : std::string("HasCRtm");
    });

}  // namespace
}  // namespace aam
