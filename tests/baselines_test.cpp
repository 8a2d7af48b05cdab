#include <gtest/gtest.h>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "baselines/bsp_engine.hpp"
#include "baselines/named.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace aam::baselines {
namespace {

using graph::Graph;
using graph::Vertex;
using model::HtmKind;

Graph test_graph(std::uint64_t seed = 3) {
  util::Rng rng(seed);
  graph::KroneckerParams p;
  p.scale = 11;
  p.edge_factor = 8;
  return graph::kronecker(p, rng);
}

// ------------------------------------------------------------ BSP engine

TEST(BspEngine, BfsLevelsMatchReference) {
  const Graph g = test_graph();
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  const Vertex root = graph::pick_nonisolated_vertex(g);
  BspEngine::Result result;
  const auto level = bsp_bfs(machine, g, root, &result);
  const auto reference = graph::bfs_levels(g, root);
  EXPECT_EQ(level, reference);
  EXPECT_GT(result.supersteps, 1);
  EXPECT_GT(result.messages_sent, 0u);
}

TEST(BspEngine, SuperstepCountTracksDiameter) {
  util::Rng rng(7);
  const Graph g = graph::road_lattice(30, 30, 0.0, rng);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  BspEngine::Result result;
  const auto level = bsp_bfs(machine, g, 0, &result);
  EXPECT_EQ(level, graph::bfs_levels(g, 0));
  // A 30x30 grid from the corner: eccentricity 58 -> ~60 supersteps.
  EXPECT_GE(result.supersteps, 58);
}

TEST(BspEngine, SuperstepOverheadDominatesRuntime) {
  // The §6.1.2 HAMA effect: runtime grows linearly with supersteps at
  // tens of milliseconds each, making high-diameter graphs catastrophic.
  util::Rng rng(9);
  const Graph g = graph::road_lattice(20, 20, 0.0, rng);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  BspEngine::Result result;
  bsp_bfs(machine, g, 0, &result);
  EXPECT_GE(result.total_time_ns,
            BspEngine::kSuperstepOverheadNs *
                static_cast<double>(result.supersteps - 1));
}

TEST(BspEngine, VoteToHaltTerminates) {
  // A program where every vertex halts immediately ends in one superstep.
  const Graph g = test_graph(11);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  const auto result = BspEngine::run(
      machine, g, [](BspEngine::VertexContext& ctx) { ctx.vote_to_halt(); });
  EXPECT_EQ(result.supersteps, 1);
  EXPECT_EQ(result.messages_sent, 0u);
}

// -------------------------------------------------------- Named baselines

// The Graph500 reference and the Galois-like engine: run_bfs at M = 1
// under atomics and under fine locks.
algorithms::BfsResult baseline_bfs(htm::DesMachine& machine, const Graph& g,
                                   Vertex root, core::Mechanism mechanism) {
  algorithms::BfsOptions options;
  options.root = root;
  options.mechanism = mechanism;
  options.batch = 1;
  return algorithms::run_bfs(machine, g, options);
}

TEST(NamedBaselines, Graph500AndGaloisProduceValidTrees) {
  const Graph g = test_graph(13);
  const Vertex root = graph::pick_nonisolated_vertex(g);
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
    const auto r =
        baseline_bfs(machine, g, root, core::Mechanism::kAtomicOps);
    EXPECT_TRUE(algorithms::validate_bfs_tree(g, root, r.parent));
    // The baseline uses no transactions at all.
    EXPECT_EQ(r.stats.started, 0u);
    EXPECT_GT(r.stats.atomic_cas, 0u);
  }
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
    const auto r =
        baseline_bfs(machine, g, root, core::Mechanism::kFineLocks);
    EXPECT_TRUE(algorithms::validate_bfs_tree(g, root, r.parent));
  }
}

TEST(NamedBaselines, SnapBfsMatchesReferenceAndIsSequential) {
  const Graph g = test_graph(17);
  const Vertex root = graph::pick_nonisolated_vertex(g);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  const auto r = snap_bfs(machine, g, root);
  EXPECT_EQ(r.level, graph::bfs_levels(g, root));
  EXPECT_GT(r.total_time_ns, 0.0);
}

TEST(NamedBaselines, HamaLikeOrdersOfMagnitudeSlowerThanGraph500) {
  // Table 1's S-over-HAMA column is in the hundreds-to-thousands.
  const Graph g = test_graph(19);
  const Vertex root = graph::pick_nonisolated_vertex(g);
  double g500_time = 0;
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
    g500_time = baseline_bfs(machine, g, root, core::Mechanism::kAtomicOps)
                    .total_time_ns;
  }
  double hama_time = 0;
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
    BspEngine::Result result;
    bsp_bfs(machine, g, root, &result);
    hama_time = result.total_time_ns;
  }
  EXPECT_GT(hama_time, 50.0 * g500_time);
}

// ------------------------------------------------- Distributed PR baseline

TEST(PbglBaseline, AamAndPbglAgreeOnRanks) {
  const Graph g = test_graph(23);
  algorithms::DistPrOptions options;
  options.iterations = 3;

  std::vector<double> aam_rank;
  {
    const graph::Block1D part(g.num_vertices(), 4);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 4, heap);
    options.mode = algorithms::DistPrMode::kAam;
    aam_rank = run_distributed_pagerank(cluster, g, part, options).rank;
  }
  std::vector<double> pbgl_rank;
  {
    // Process-per-thread, as PBGL has no threading (§6.2).
    const graph::Block1D part(g.num_vertices(), 16);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 16, 1, heap);
    options.mode = algorithms::DistPrMode::kPbgl;
    pbgl_rank = run_distributed_pagerank(cluster, g, part, options).rank;
  }
  const auto reference =
      algorithms::pagerank_reference(g, options.iterations, options.damping);
  ASSERT_EQ(aam_rank.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(aam_rank[i], reference[i], 1e-5) << i;   // float32 payload
    EXPECT_NEAR(pbgl_rank[i], reference[i], 1e-5) << i;
  }
}

TEST(PbglBaseline, AamOutperformsPbgl) {
  // The Fig 7c-e shape: AAM is ~3-10x faster thanks to coalescing, coarse
  // transactions and threading (PBGL runs one process per thread, so its
  // node-local traffic also crosses the messaging layer).
  const Graph g = test_graph(29);
  algorithms::DistPrOptions options;
  options.iterations = 2;

  double aam_time = 0, pbgl_time = 0;
  {
    const graph::Block1D part(g.num_vertices(), 4);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 4, heap);
    options.mode = algorithms::DistPrMode::kAam;
    aam_time = run_distributed_pagerank(cluster, g, part, options)
                   .total_time_ns;
  }
  {
    const graph::Block1D part(g.num_vertices(), 16);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 16, 1, heap);
    options.mode = algorithms::DistPrMode::kPbgl;
    pbgl_time = run_distributed_pagerank(cluster, g, part, options)
                    .total_time_ns;
  }
  EXPECT_GT(pbgl_time, 2.0 * aam_time);
}

}  // namespace
}  // namespace aam::baselines
