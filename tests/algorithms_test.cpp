#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/boruvka.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/st_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace aam::algorithms {
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

Graph weighted_test_graph(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  auto edges = graph::erdos_renyi_edges(600, 0.02, rng);
  const auto weights = graph::random_weights(edges.size(), 1.0f, 100.0f, rng);
  return Graph::from_weighted_edges(600, edges, weights, true);
}

// ------------------------------------------------------------------ BFS

class BfsAllMechanismsTest
    : public ::testing::TestWithParam<std::tuple<core::Mechanism, int>> {};

TEST_P(BfsAllMechanismsTest, ProducesValidBfsTree) {
  const auto [mechanism, threads] = GetParam();
  const Graph g = test_graph();
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, threads, heap);
  BfsOptions options;
  options.root = graph::pick_nonisolated_vertex(g);
  options.mechanism = mechanism;
  options.batch = 8;
  const BfsResult result = run_bfs(machine, g, options);
  EXPECT_TRUE(validate_bfs_tree(g, options.root, result.parent));
  EXPECT_EQ(result.vertices_visited,
            graph::reachable_count(g, options.root));
  EXPECT_GT(result.total_time_ns, 0.0);
  EXPECT_FALSE(result.level_times_ns.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanismsAndThreads, BfsAllMechanismsTest,
    ::testing::Combine(::testing::ValuesIn(core::all_mechanisms().begin(),
                                           core::all_mechanisms().end()),
                       ::testing::Values(1, 4, 8)),
    [](const auto& info) {
      std::string name = core::to_string(std::get<0>(info.param));
      std::erase(name, '-');  // gtest parameter names must be alphanumeric
      return name + "_T" + std::to_string(std::get<1>(info.param));
    });

class BfsBatchSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BfsBatchSweepTest, AamCorrectAtEveryBatchSize) {
  const Graph g = test_graph(11);
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap);
  BfsOptions options;
  options.root = graph::pick_nonisolated_vertex(g);
  options.batch = GetParam();
  const BfsResult result = run_bfs(machine, g, options);
  EXPECT_TRUE(validate_bfs_tree(g, options.root, result.parent));
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BfsBatchSweepTest,
                         ::testing::Values(1, 2, 16, 80, 144, 320));

TEST(Bfs, DeterministicAcrossRuns) {
  const Graph g = test_graph(13);
  auto run_once = [&] {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap, 99);
    BfsOptions options;
    options.root = graph::pick_nonisolated_vertex(g);
    const BfsResult r = run_bfs(machine, g, options);
    return std::tuple(r.total_time_ns, r.stats.total_aborts(),
                      r.vertices_visited);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Bfs, BgqValidOnBothHtmModes) {
  const Graph g = test_graph(17);
  for (HtmKind kind : {HtmKind::kBgqShort, HtmKind::kBgqLong}) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::bgq(), kind, 64, heap);
    BfsOptions options;
    options.root = graph::pick_nonisolated_vertex(g);
    options.batch = 32;
    const BfsResult result = run_bfs(machine, g, options);
    EXPECT_TRUE(validate_bfs_tree(g, options.root, result.parent))
        << to_string(kind);
  }
}

TEST(Bfs, HleValidUnderContention) {
  const Graph g = test_graph(19);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kHle, 8, heap);
  BfsOptions options;
  options.root = graph::pick_nonisolated_vertex(g);
  options.batch = 4;
  const BfsResult result = run_bfs(machine, g, options);
  EXPECT_TRUE(validate_bfs_tree(g, options.root, result.parent));
}

TEST(Bfs, LevelTimesSumToTotal) {
  const Graph g = test_graph(23);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  BfsOptions options;
  options.root = graph::pick_nonisolated_vertex(g);
  const BfsResult r = run_bfs(machine, g, options);
  double sum = 0;
  for (double t : r.level_times_ns) sum += t;
  // Levels partition the run up to per-level barrier costs.
  EXPECT_NEAR(sum, r.total_time_ns,
              options.barrier_cost_ns * static_cast<double>(
                  r.level_times_ns.size() + 1));
}

// validate_bfs_tree rejects each way a parent array can be wrong. The
// graph: root 0 with children hub 1 and vertex 2, adjacent to each other;
// the hub's long row holds 0, 2 and every even id in [4, 2002]; vertex 2's
// only child is the odd id 1001; vertex 2003 is isolated.
TEST(Bfs, ValidateRejectsBadParents) {
  constexpr Vertex kRoot = 0, kHub = 1, kSide = 2, kOdd = 1001,
                   kIsolated = 2003;
  graph::EdgeList edges = {{kRoot, kHub}, {kRoot, kSide}, {kHub, kSide},
                           {kSide, kOdd}};
  for (Vertex leaf = 4; leaf <= 2002; leaf += 2) edges.emplace_back(kHub, leaf);
  const Graph g = Graph::from_edges(kIsolated + 1, edges, true);
  ASSERT_GT(g.degree(kHub), 1000u);

  std::vector<Vertex> tree(g.num_vertices(), graph::kInvalidVertex);
  tree[kRoot] = kRoot;
  tree[kHub] = kRoot;
  tree[kSide] = kRoot;
  tree[kOdd] = kSide;
  for (Vertex leaf = 4; leaf <= 2002; leaf += 2) tree[leaf] = kHub;
  ASSERT_TRUE(validate_bfs_tree(g, kRoot, tree));

  // A parent one level up but not adjacent: 1001 sits between the hub's
  // neighbours 1000 and 1002, in the middle of its row.
  std::vector<Vertex> bad = tree;
  bad[kOdd] = kHub;
  EXPECT_FALSE(validate_bfs_tree(g, kRoot, bad));

  // An adjacent parent one level off: hub and side are both on level 1.
  bad = tree;
  bad[kSide] = kHub;
  EXPECT_FALSE(validate_bfs_tree(g, kRoot, bad));

  // A parented vertex the root cannot reach.
  bad = tree;
  bad[kIsolated] = kRoot;
  EXPECT_FALSE(validate_bfs_tree(g, kRoot, bad));
}

// ------------------------------------------------------------- PageRank

TEST(PageRank, MatchesSequentialReference) {
  const Graph g = test_graph(29);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  PageRankOptions options;
  options.iterations = 5;
  options.batch = 8;
  const PageRankResult result = run_pagerank(machine, g, options);
  const auto reference = pagerank_reference(g, 5, options.damping);
  ASSERT_EQ(result.rank.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(result.rank[i], reference[i], 1e-9) << i;
  }
}

TEST(PageRank, RanksSumToAtMostOne) {
  // Push PR without dangling redistribution: the total mass is <= 1 and
  // positive.
  const Graph g = test_graph(31);
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap);
  PageRankOptions options;
  options.iterations = 3;
  const PageRankResult result = run_pagerank(machine, g, options);
  double sum = 0;
  for (double r : result.rank) {
    EXPECT_GT(r, 0.0);
    sum += r;
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(sum, 0.1);
}

TEST(PageRank, HubHasHighestRank) {
  // Star graph: the center must collect the top rank.
  graph::EdgeList edges;
  for (Vertex v = 1; v < 50; ++v) edges.emplace_back(0, v);
  const Graph g = Graph::from_edges(50, edges, true);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  PageRankOptions options;
  options.iterations = 10;
  const PageRankResult result = run_pagerank(machine, g, options);
  for (Vertex v = 1; v < 50; ++v) EXPECT_GT(result.rank[0], result.rank[v]);
}

// ------------------------------------------------------- ST connectivity

TEST(StConnectivity, DetectsConnectedPair) {
  const Graph g = test_graph(37);
  const Vertex s = graph::pick_nonisolated_vertex(g, 1);
  // Pick t reachable from s.
  const auto levels = graph::bfs_levels(g, s);
  Vertex t = graph::kInvalidVertex;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != s && levels[v] != graph::kInvalidLevel && levels[v] >= 2) {
      t = v;
      break;
    }
  }
  ASSERT_NE(t, graph::kInvalidVertex);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  StConnOptions options;
  options.s = s;
  options.t = t;
  const StConnResult result = run_st_connectivity(machine, g, options);
  EXPECT_TRUE(result.connected);
}

TEST(StConnectivity, DetectsDisconnectedPair) {
  // Two disjoint cliques.
  graph::EdgeList edges;
  for (Vertex u = 0; u < 10; ++u) {
    for (Vertex v = u + 1; v < 10; ++v) edges.emplace_back(u, v);
  }
  for (Vertex u = 10; u < 20; ++u) {
    for (Vertex v = u + 1; v < 20; ++v) edges.emplace_back(u, v);
  }
  const Graph g = Graph::from_edges(20, edges, true);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  StConnOptions options;
  options.s = 0;
  options.t = 15;
  const StConnResult result = run_st_connectivity(machine, g, options);
  EXPECT_FALSE(result.connected);
  EXPECT_EQ(result.vertices_colored, 20u);  // both waves flooded their side
}

TEST(StConnectivity, AdjacentVerticesConnected) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}}, true);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 2, heap);
  StConnOptions options;
  options.s = 0;
  options.t = 1;
  EXPECT_TRUE(run_st_connectivity(machine, g, options).connected);
  options.s = 1;
  options.t = 2;
  mem::SimHeap heap2;
  htm::DesMachine machine2(model::has_c(), HtmKind::kRtm, 2, heap2);
  EXPECT_FALSE(run_st_connectivity(machine2, g, options).connected);
}

// --------------------------------------------------------------- Coloring

class ColoringThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(ColoringThreadsTest, ProducesProperColoring) {
  const Graph g = test_graph(41);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, GetParam(), heap);
  const ColoringResult result = run_boman_coloring(machine, g, {});
  EXPECT_TRUE(validate_coloring(g, result.color));
  const auto stats = graph::degree_stats(g);
  EXPECT_LE(result.colors_used, stats.max + 1);
  EXPECT_GE(result.colors_used, 2u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ColoringThreadsTest,
                         ::testing::Values(1, 4, 8));

TEST(Coloring, ConflictsTriggerRecoloring) {
  // A dense graph colored by many threads must see conflicts.
  util::Rng rng(43);
  const Graph g = graph::erdos_renyi(300, 0.1, rng);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  ColoringOptions options;
  options.batch = 4;
  const ColoringResult result = run_boman_coloring(machine, g, options);
  EXPECT_TRUE(validate_coloring(g, result.color));
  EXPECT_GT(result.rounds, 1);
  EXPECT_GT(result.recolor_requests, 0u);
}

TEST(Coloring, BipartiteUsesTwoColors) {
  // Path graph: 2 colors suffice and the heuristic must find at most 3.
  graph::EdgeList edges;
  for (Vertex v = 0; v + 1 < 100; ++v) edges.emplace_back(v, v + 1);
  const Graph g = Graph::from_edges(100, edges, true);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  const ColoringResult result = run_boman_coloring(machine, g, {});
  EXPECT_TRUE(validate_coloring(g, result.color));
  EXPECT_LE(result.colors_used, 3u);
}

/// The sort-based pick that first_fit_color() replaced: smallest color
/// >= 1 absent from `colors`.
std::uint32_t sorted_first_fit(std::vector<std::uint32_t> colors) {
  std::sort(colors.begin(), colors.end());
  std::uint32_t candidate = 1;
  for (std::uint32_t c : colors) {
    if (c == candidate) ++candidate;
    else if (c > candidate) break;
  }
  return candidate;
}

TEST(FirstFitColor, MatchesSortedReference) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  FirstFitScratch scratch;  // shared by every case, as in the coloring run
  const std::vector<std::vector<std::uint32_t>> fixed = {
      {},
      {0, 0, 0},
      {1},
      {1, 1, 2, 2, 3},
      {3, 2, 1},
      {2, 3, 4},
      {1, 2, 3, 4},
      {7, 8, 9},
      {kMax},
      {1, kMax, 2, kMax - 1, 0},
  };
  for (const auto& colors : fixed) {
    EXPECT_EQ(first_fit_color(colors, scratch), sorted_first_fit(colors))
        << ::testing::PrintToString(colors);
  }
  // Random multisets mixing uncolored (0), duplicates, values past
  // degree + 1 and UINT32_MAX, at every size up to 40.
  util::Rng rng(17);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::uint32_t> colors(rng.next_below(41));
    const std::uint64_t range = colors.size() + 3;
    for (std::uint32_t& c : colors) {
      const std::uint64_t pick = rng.next_below(8);
      if (pick == 0) c = 0;
      else if (pick == 1) c = kMax;
      else if (pick == 2) c = static_cast<std::uint32_t>(rng.next_below(kMax));
      else c = static_cast<std::uint32_t>(1 + rng.next_below(range));
    }
    ASSERT_EQ(first_fit_color(colors, scratch), sorted_first_fit(colors))
        << ::testing::PrintToString(colors);
  }
}

TEST(FirstFitColor, SurvivesStampWrap) {
  FirstFitScratch scratch;
  const std::vector<std::uint32_t> colors = {1, 2, 4};
  EXPECT_EQ(first_fit_color(colors, scratch), 3u);
  // The next call wraps the stamp; marks from before must not leak in.
  scratch.stamp = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(first_fit_color(std::vector<std::uint32_t>{2}, scratch), 1u);
  EXPECT_EQ(scratch.stamp, 1u);
  EXPECT_EQ(first_fit_color(colors, scratch), 3u);
}

// ---------------------------------------------------------------- Boruvka

TEST(Boruvka, MatchesKruskalOnConnectedGraph) {
  const Graph g = weighted_test_graph();
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  const BoruvkaResult result = run_boruvka(machine, g, {});
  const double reference = mst_reference_weight(g);
  EXPECT_NEAR(result.total_weight, reference, reference * 1e-6);
  EXPECT_GT(result.rounds, 0);
}

TEST(Boruvka, HandlesForests) {
  // Two components: the result is a spanning forest.
  util::Rng rng(47);
  graph::EdgeList edges;
  for (Vertex v = 0; v + 1 < 50; ++v) edges.emplace_back(v, v + 1);
  for (Vertex v = 50; v + 1 < 100; ++v) edges.emplace_back(v, v + 1);
  const auto weights = graph::random_weights(edges.size(), 1.0f, 10.0f, rng);
  const Graph g = Graph::from_weighted_edges(100, edges, weights, true);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  const BoruvkaResult result = run_boruvka(machine, g, {});
  EXPECT_EQ(result.edges_in_forest, 98u);  // (50-1) + (50-1)
  EXPECT_NEAR(result.total_weight, mst_reference_weight(g), 1e-3);
}

TEST(Boruvka, ConcurrentMergesMayFail) {
  const Graph g = weighted_test_graph(53);
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap);
  BoruvkaOptions options;
  options.batch = 8;
  const BoruvkaResult result = run_boruvka(machine, g, options);
  EXPECT_NEAR(result.total_weight, mst_reference_weight(g),
              mst_reference_weight(g) * 1e-6);
  // Duplicate candidates (each component nominates the shared min edge)
  // must appear as algorithm-level May-Fail events.
  EXPECT_GT(result.failed_merges, 0u);
}

// ------------------------------------------------------------------- SSSP

TEST(Sssp, MatchesDijkstra) {
  const Graph g = weighted_test_graph(59);
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
  SsspOptions options;
  options.source = graph::pick_nonisolated_vertex(g);
  const SsspResult result = run_sssp(machine, g, options);
  const auto reference = sssp_reference(g, options.source);
  ASSERT_EQ(result.distance.size(), reference.size());
  for (std::size_t v = 0; v < reference.size(); ++v) {
    if (std::isinf(reference[v])) {
      EXPECT_TRUE(std::isinf(result.distance[v])) << v;
    } else {
      EXPECT_NEAR(result.distance[v], reference[v], 1e-6) << v;
    }
  }
}

TEST(Sssp, UnitWeightsReduceToBfs) {
  const Graph base = test_graph(61);
  // Rebuild with unit weights.
  graph::EdgeList edges;
  for (Vertex u = 0; u < base.num_vertices(); ++u) {
    for (Vertex w : base.neighbors(u)) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  const Graph g = Graph::from_weighted_edges(
      base.num_vertices(), edges, std::vector<float>(edges.size(), 1.0f),
      true);
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap);
  SsspOptions options;
  options.source = graph::pick_nonisolated_vertex(g);
  const SsspResult result = run_sssp(machine, g, options);
  const auto levels = graph::bfs_levels(g, options.source);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] == graph::kInvalidLevel) continue;
    EXPECT_DOUBLE_EQ(result.distance[v], static_cast<double>(levels[v]));
  }
}

}  // namespace
}  // namespace aam::algorithms
