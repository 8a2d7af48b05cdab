#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "algorithms/boruvka.hpp"
#include "graph/analogs.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "htm/des_engine.hpp"
#include "model/machines.hpp"

namespace aam::graph {
namespace {

// ------------------------------------------------------------------ CSR

TEST(Csr, BuildsDirected) {
  const EdgeList edges = {{0, 1}, {0, 2}, {1, 2}, {3, 0}};
  const Graph g = Graph::from_edges(4, edges, /*undirected=*/false);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 1u);
  auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<Vertex>(n0.begin(), n0.end()),
            (std::vector<Vertex>{1, 2}));
}

TEST(Csr, UndirectedMirrorsEdges) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}}, true);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Csr, DropsSelfLoopsAndDuplicates) {
  const Graph g =
      Graph::from_edges(3, {{0, 0}, {0, 1}, {0, 1}, {1, 2}}, false);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Csr, WeightedEdges) {
  const Graph g = Graph::from_weighted_edges(3, {{0, 1}, {1, 2}},
                                             {2.5f, 7.0f}, true);
  ASSERT_TRUE(g.has_weights());
  EXPECT_FLOAT_EQ(g.weights(0)[0], 2.5f);
  // Mirrored edge carries the same weight.
  auto n1 = g.neighbors(1);
  auto w1 = g.weights(1);
  ASSERT_EQ(n1.size(), 2u);
  for (std::size_t i = 0; i < n1.size(); ++i) {
    if (n1[i] == 0) {
      EXPECT_FLOAT_EQ(w1[i], 2.5f);
    }
    if (n1[i] == 2) {
      EXPECT_FLOAT_EQ(w1[i], 7.0f);
    }
  }
}

TEST(Csr, DuplicateWeightedEdgesKeepTheMinimumOnBothDirections) {
  // 200,000 random weighted edges over 300 vertices repeat most pairs many
  // times, in both orientations and with different weights.
  constexpr Vertex kN = 300;
  util::Rng rng(11);
  EdgeList edges;
  for (int i = 0; i < 200000; ++i) {
    edges.emplace_back(static_cast<Vertex>(rng.next_below(kN)),
                       static_cast<Vertex>(rng.next_below(kN)));
  }
  const auto weights = random_weights(edges.size(), 1.0f, 100.0f, rng);
  const Graph g = Graph::from_weighted_edges(kN, edges, weights, true);

  std::map<std::pair<Vertex, Vertex>, float> lightest;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    const auto [it, fresh] = lightest.emplace(key, weights[i]);
    if (!fresh) it->second = std::min(it->second, weights[i]);
  }
  ASSERT_EQ(g.num_edges(), 2 * lightest.size());
  for (Vertex u = 0; u < kN; ++u) {
    const auto row = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Vertex v = row[i];
      const auto mirror = g.neighbors(v);
      const auto at = std::lower_bound(mirror.begin(), mirror.end(), u);
      ASSERT_TRUE(at != mirror.end() && *at == u) << u << "-" << v;
      const auto back = static_cast<std::size_t>(at - mirror.begin());
      ASSERT_EQ(ws[i], g.weights(v)[back]) << u << "-" << v;
      ASSERT_EQ(ws[i], lightest.at(std::minmax(u, v))) << u << "-" << v;
    }
  }

  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap);
  const auto mst = algorithms::run_boruvka(machine, g, {});
  EXPECT_EQ(mst.edges_in_forest, kN - 1u);
  // 299 float weights in [1, 100) sum exactly in a double, in any order.
  EXPECT_EQ(mst.total_weight, algorithms::mst_reference_weight(g));
}

TEST(Csr, AvgDegree) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, true);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 6.0 / 4.0);
}

/// csr.hpp's row invariant: every row ascending, strictly when the build
/// removed duplicates.
void expect_rows_sorted(const Graph& g, bool strict) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto row = g.neighbors(v);
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (strict) {
        ASSERT_LT(row[i - 1], row[i]) << "row " << v;
      } else {
        ASSERT_LE(row[i - 1], row[i]) << "row " << v;
      }
    }
  }
}

/// Edges in a random order, with duplicates and self-loops.
EdgeList scrambled_edges(Vertex n, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  EdgeList edges;
  for (std::size_t i = 0; i < count; ++i) {
    edges.emplace_back(static_cast<Vertex>(rng.next_below(n)),
                       static_cast<Vertex>(rng.next_below(n)));
  }
  return edges;
}

TEST(Csr, RowsSortedOnEveryConstructor) {
  const EdgeList edges = scrambled_edges(50, 2000, 3);
  for (const bool undirected : {false, true}) {
    SCOPED_TRACE(undirected);
    const Graph deduped = Graph::from_edges(50, edges, undirected);
    expect_rows_sorted(deduped, /*strict=*/true);
    const Graph kept =
        Graph::from_edges(50, edges, undirected, /*dedupe=*/false);
    EXPECT_GT(kept.num_edges(), deduped.num_edges());  // duplicates kept
    expect_rows_sorted(kept, /*strict=*/false);
    const Graph weighted = Graph::from_weighted_edges(
        50, edges, std::vector<float>(edges.size(), 1.0f), undirected);
    expect_rows_sorted(weighted, /*strict=*/true);
  }
}

/// A CSR as flat arrays, weights concatenated row by row.
struct FlatCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<Vertex> adj;
  std::vector<float> weights;
  bool operator==(const FlatCsr&) const = default;
};

FlatCsr flatten(const Graph& g) {
  FlatCsr f{{g.offsets().begin(), g.offsets().end()},
            {g.adjacency().begin(), g.adjacency().end()},
            {}};
  if (g.has_weights()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto w = g.weights(v);
      f.weights.insert(f.weights.end(), w.begin(), w.end());
    }
  }
  return f;
}

/// The build the counting sorts replace: sort (src, dst, weight) triples
/// and keep the first of each (src, dst). `weights` is empty when
/// unweighted.
FlatCsr sorted_reference(Vertex n, const EdgeList& edges,
                         const std::vector<float>& weights, bool undirected,
                         bool dedupe) {
  std::vector<std::tuple<Vertex, Vertex, float>> arcs;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    if (u == v) continue;
    const float w = weights.empty() ? 0.0f : weights[i];
    arcs.emplace_back(u, v, w);
    if (undirected) arcs.emplace_back(v, u, w);
  }
  std::sort(arcs.begin(), arcs.end());
  if (dedupe) {
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const auto& a, const auto& b) {
                             return std::get<0>(a) == std::get<0>(b) &&
                                    std::get<1>(a) == std::get<1>(b);
                           }),
               arcs.end());
  }
  FlatCsr f;
  f.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v, w] : arcs) {
    ++f.offsets[u + 1];
    f.adj.push_back(v);
    if (!weights.empty()) f.weights.push_back(w);
  }
  for (Vertex v = 0; v < n; ++v) f.offsets[v + 1] += f.offsets[v];
  return f;
}

TEST(Csr, CountingBuildMatchesSortedReference) {
  constexpr Vertex kN = 400;
  constexpr Vertex kHub = 137;
  util::Rng rng(23);
  // Duplicates and self-loops from a small vertex set, one hub row of
  // thousands of arcs, and repeated (u, v) pairs in both orientations.
  EdgeList edges = scrambled_edges(kN, 6000, 29);
  for (int i = 0; i < 5000; ++i) {
    edges.emplace_back(kHub, static_cast<Vertex>(rng.next_below(kN)));
  }
  for (int i = 0; i < 500; ++i) {
    const auto [u, v] = edges[rng.next_below(edges.size())];
    edges.emplace_back(i % 2 == 0 ? std::pair{u, v} : std::pair{v, u});
  }
  // Weights from a small set, so some duplicates tie on weight too.
  std::vector<float> weights(edges.size());
  for (float& w : weights) w = static_cast<float>(1 + rng.next_below(50));

  for (const bool undirected : {false, true}) {
    SCOPED_TRACE(undirected);
    for (const bool dedupe : {false, true}) {
      SCOPED_TRACE(dedupe);
      EXPECT_EQ(flatten(Graph::from_edges(kN, edges, undirected, dedupe)),
                sorted_reference(kN, edges, {}, undirected, dedupe));
    }
    const FlatCsr weighted =
        flatten(Graph::from_weighted_edges(kN, edges, weights, undirected));
    EXPECT_EQ(weighted,
              sorted_reference(kN, edges, weights, undirected, true));
    EXPECT_EQ(weighted.offsets[kHub + 1] - weighted.offsets[kHub], kN - 1)
        << "the hub row reaches every other vertex";
  }
}

TEST(CsrDeathTest, OutOfRangeEndpointDiesBeforeAnyWrite) {
  // The bad endpoint comes last and far out of range: a build that
  // indexed by it before checking would write out of bounds first.
  const EdgeList good = scrambled_edges(64, 500, 31);
  const EdgeList bad_edges = {
      {64, 0}, {3, 64}, {0xfffffff0u, 1}, {2, kInvalidVertex - 1}};
  for (const auto& bad : bad_edges) {
    EdgeList edges = good;
    edges.push_back(bad);
    const std::vector<float> weights(edges.size(), 1.0f);
    for (const bool undirected : {false, true}) {
      EXPECT_DEATH(Graph::from_edges(64, edges, undirected),
                   "edge endpoint out of range");
      EXPECT_DEATH(Graph::from_weighted_edges(64, edges, weights, undirected),
                   "edge endpoint out of range");
    }
  }
  EXPECT_DEATH(Graph::from_edges(0, {{0, 0}}, true),
               "edge endpoint out of range");
}

// ----------------------------------------------------------- Generators

TEST(Generators, KroneckerSizeAndDeterminism) {
  KroneckerParams p;
  p.scale = 10;
  p.edge_factor = 8;
  util::Rng rng1(3), rng2(3);
  const Graph a = kronecker(p, rng1);
  const Graph b = kronecker(p, rng2);
  EXPECT_EQ(a.num_vertices(), 1u << 10);
  EXPECT_GT(a.num_edges(), 0u);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  // Power-law-ish skew: max degree far above the mean.
  const DegreeStats s = degree_stats(a);
  EXPECT_GT(s.max, 4 * s.mean);
}

/// FNV-1a over each edge's endpoints, four little-endian bytes each.
std::uint64_t fnv1a(const EdgeList& edges) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [u, v] : edges) {
    for (const Vertex x : {u, v}) {
      for (int byte = 0; byte < 4; ++byte) {
        h ^= (x >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(Generators, KroneckerEdgeListDigestPinned) {
  // Recorded from the generator that compared next_double() with the
  // initiator's probabilities; the integer thresholds must draw the same
  // stream and produce the same edges.
  const struct {
    int scale;
    std::uint64_t seed;
    std::uint64_t digest;
  } pinned[] = {{10, 1, 0xb019eb6afbde8f8eULL},
                {10, 2, 0x10a673c1b42049cbULL},
                {10, 3, 0x5062bade03b506d5ULL},
                {14, 1, 0x8141b4059f7257b2ULL}};
  for (const auto& pin : pinned) {
    KroneckerParams p;
    p.scale = pin.scale;
    p.edge_factor = 8;
    util::Rng rng(pin.seed);
    const EdgeList edges = kronecker_edges(p, rng);
    EXPECT_EQ(edges.size(), 8u << pin.scale);
    EXPECT_EQ(fnv1a(edges), pin.digest)
        << "scale " << pin.scale << " seed " << pin.seed;
  }
}

TEST(Generators, IntegerThresholdMatchesNextDouble) {
  constexpr double a = kKroneckerA;
  constexpr double b = kKroneckerB;
  constexpr double c = kKroneckerC;
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  for (const double v : {a, a / (a + b), c / (1 - a - b), 0.5, 0.25, 1e-3,
                         1.0}) {
    SCOPED_TRACE(v);
    const std::uint64_t t = util::Rng::double_threshold(v);
    for (const std::uint64_t k : {std::uint64_t{0}, t - 1, t, t + 1, kTop}) {
      if (k > kTop) continue;  // no draw yields it
      const bool above = static_cast<double>(k) * 0x1.0p-53 > v;
      // The 11 low bits of a draw never reach next_double().
      EXPECT_EQ(util::Rng::double_above(k << 11, t), above) << k;
      EXPECT_EQ(util::Rng::double_above(k << 11 | 0x7ff, t), above) << k;
    }
    // The same draws, compared both ways.
    util::Rng as_double(7);
    util::Rng as_integer(7);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(as_double.next_double() > v,
                util::Rng::double_above(as_integer(), t));
    }
  }
}

TEST(Generators, ErdosRenyiDegreeConcentrates) {
  util::Rng rng(5);
  const Vertex n = 2000;
  const double p = 0.01;
  const Graph g = erdos_renyi(n, p, rng);
  const DegreeStats s = degree_stats(g);
  const double expected = p * (n - 1);
  EXPECT_NEAR(s.mean, expected, expected * 0.15);
  // Binomial distribution: no power-law tail.
  EXPECT_LT(s.max, 4 * expected);
}

TEST(Generators, PreferentialAttachmentHeavyTail) {
  util::Rng rng(7);
  const Graph g = preferential_attachment(5000, 2, rng);
  EXPECT_EQ(g.num_vertices(), 5000u);
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(s.max, 10 * s.mean);
  EXPECT_NEAR(s.mean, 4.0, 1.0);  // 2 edges per vertex, both directions
}

TEST(Generators, RoadLatticeHighDiameterLowDegree) {
  util::Rng rng(9);
  const Graph g = road_lattice(50, 50, 0.0, rng);
  EXPECT_EQ(g.num_vertices(), 2500u);
  const DegreeStats s = degree_stats(g);
  EXPECT_LE(s.max, 4u);
  // Diameter of a 50x50 grid is 98.
  EXPECT_GE(diameter_lower_bound(g, 0), 90u);
}

TEST(Generators, RandomWeightsInRange) {
  util::Rng rng(13);
  const auto w = random_weights(1000, 1.0f, 5.0f, rng);
  for (float x : w) {
    EXPECT_GE(x, 1.0f);
    EXPECT_LT(x, 5.0f);
  }
}

// ------------------------------------------------------------ Partition

TEST(Partition, BlocksCoverAllVerticesOnce) {
  const Block1D part(100, 7);
  std::uint64_t covered = 0;
  for (int node = 0; node < 7; ++node) {
    covered += part.count(node);
    for (Vertex v = part.begin(node); v < part.end(node); ++v) {
      EXPECT_EQ(part.owner(v), node);
    }
  }
  EXPECT_EQ(covered, 100u);
}

TEST(Partition, LocalIndex) {
  const Block1D part(100, 4);
  EXPECT_EQ(part.local_index(part.begin(2)), 0u);
  EXPECT_EQ(part.local_index(part.begin(2) + 5), 5u);
}

TEST(Partition, MoreNodesThanVertices) {
  const Block1D part(3, 8);
  std::uint64_t covered = 0;
  for (int node = 0; node < 8; ++node) covered += part.count(node);
  EXPECT_EQ(covered, 3u);
}

// ------------------------------------------------------------------ IO

TEST(Io, RoundTrip) {
  util::Rng rng(15);
  const Graph g = erdos_renyi(200, 0.05, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "aam_io_test.el").string();
  save_edge_list(g, path);
  LoadOptions opt;
  opt.undirected = false;  // the saved file already contains both directions
  opt.zero_based = true;
  const Graph h = load_edge_list(path, opt);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(Io, SkipsCommentsAndCompacts) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "aam_io_test2.el").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# comment\n10 20\n20 30\n", f);
    std::fclose(f);
  }
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 3u);  // ids compacted to 0..2
  EXPECT_EQ(g.num_edges(), 4u);     // undirected
  std::remove(path.c_str());
}

/// Writes `text` to a fresh file in the temp directory; returns its path.
std::string write_temp(const std::string& name, const char* text) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs(text, f);
  std::fclose(f);
  return path;
}

TEST(Io, LoadedRowsSorted) {
  // Descending ids and a repeated edge, compacted and zero-based.
  const std::string path = write_temp(
      "aam_io_sorted.el", "9 3\n9 1\n9 7\n3 1\n9 3\n7 1\n1 9\n");
  for (const bool zero_based : {false, true}) {
    SCOPED_TRACE(zero_based);
    LoadOptions opt;
    opt.zero_based = zero_based;
    const Graph g = load_edge_list(path, opt);
    expect_rows_sorted(g, /*strict=*/true);
  }
  std::remove(path.c_str());
}

TEST(Io, AcceptsExtraTrailingColumns) {
  // SNAP weighted/temporal lists carry a third column; it is ignored.
  const std::string path =
      write_temp("aam_io_cols.el", "# u v w\n10 20 0.5\n  20 30\t7\r\n\n");
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  std::remove(path.c_str());
}

TEST(IoDeathTest, RejectsNonIntegerFieldWithLineNumber) {
  const std::string path =
      write_temp("aam_io_word.el", "# header\n1 2\n3 x\n");
  EXPECT_DEATH(load_edge_list(path), "aam_io_word.el:3: expected two");
  std::remove(path.c_str());
}

TEST(IoDeathTest, RejectsMissingSecondFieldWithLineNumber) {
  const std::string path = write_temp("aam_io_short.el", "1 2\n7\n");
  EXPECT_DEATH(load_edge_list(path), "aam_io_short.el:2: expected two");
  std::remove(path.c_str());
}

TEST(IoDeathTest, RejectsNegativeIdWithLineNumber) {
  // `istream >> uint64_t` would wrap -1 to 2^64 - 1.
  const std::string path = write_temp("aam_io_neg.el", "1 2\n-1 2\n");
  EXPECT_DEATH(load_edge_list(path), "aam_io_neg.el:2: expected two");
  std::remove(path.c_str());
}

TEST(IoDeathTest, RejectsZeroBasedIdThatDoesNotFitVertex) {
  LoadOptions opt;
  opt.zero_based = true;
  const std::string wide =
      write_temp("aam_io_wide.el", "0 1\n1 2\n0 4294967296\n");
  EXPECT_DEATH(load_edge_list(wide, opt),
               "aam_io_wide.el:3: vertex id 4294967296 does not fit");
  std::remove(wide.c_str());
  // 2^32 - 1 fits Vertex, but the vertex count max_id + 1 would not.
  const std::string edge = write_temp("aam_io_edge.el", "4294967295 0\n");
  EXPECT_DEATH(load_edge_list(edge, opt), "aam_io_edge.el:1: vertex id");
  std::remove(edge.c_str());
}

// --------------------------------------------------------------- Stats

TEST(Stats, BfsLevels) {
  // Path graph 0-1-2-3.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, true);
  const auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], 2u);
  EXPECT_EQ(levels[3], 3u);
  EXPECT_EQ(diameter_lower_bound(g, 1), 3u);
}

TEST(Stats, UnreachableVertices) {
  const Graph g = Graph::from_edges(4, {{0, 1}}, true);
  const auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[2], kInvalidLevel);
  EXPECT_EQ(reachable_count(g, 0), 2u);
}

TEST(Stats, PickNonisolatedVertex) {
  const Graph g = Graph::from_edges(10, {{7, 8}}, true);
  const Vertex v = pick_nonisolated_vertex(g);
  EXPECT_TRUE(v == 7 || v == 8);
}

// -------------------------------------------------------------- Analogs

TEST(Analogs, CatalogHasAllSixteenGraphs) {
  EXPECT_EQ(table1_catalog().size(), 16u);
  EXPECT_EQ(analog_by_id("cWT").name, "wiki-Talk");
  EXPECT_EQ(analog_by_id("rCA").family, AnalogFamily::kRoad);
  EXPECT_EQ(analog_by_id("wSF").family, AnalogFamily::kWeb);
}

TEST(Analogs, SynthesizedSizeTracksDivisor) {
  util::Rng rng(17);
  const auto& a = analog_by_id("sYT");  // 1.1M vertices
  const Graph g = synthesize(a, 64, rng);
  EXPECT_NEAR(static_cast<double>(g.num_vertices()),
              static_cast<double>(a.vertices) / 64.0,
              static_cast<double>(a.vertices) / 64.0 * 0.2);
}

TEST(Analogs, RoadAnalogHasRoadStructure) {
  util::Rng rng(19);
  const Graph g = synthesize(analog_by_id("rPA"), 64, rng);
  const DegreeStats s = degree_stats(g);
  EXPECT_LT(s.max, 16u);
  EXPECT_GT(diameter_lower_bound(g, pick_nonisolated_vertex(g)), 30u);
}

TEST(Analogs, SocialAnalogIsSkewed) {
  util::Rng rng(21);
  const Graph g = synthesize(analog_by_id("sYT"), 64, rng);
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(s.max, 8 * s.mean);
}

TEST(Analogs, PaperSpeedupsArePopulated) {
  for (const auto& a : table1_catalog()) {
    EXPECT_GT(a.paper_bgq_s_m24, 0.0) << a.id;
    EXPECT_GT(a.paper_bgq_opt_m, 0) << a.id;
    EXPECT_GT(a.paper_has_s_hama, 1.0) << a.id;
  }
}

}  // namespace
}  // namespace aam::graph
