// Road-network scenario (Table 1 RNs): minimum-cost backbone + shortest
// routes.
//
// Builds a weighted road-lattice analog (high diameter, degree <= 4), then:
//   1. runs Boruvka MST with May-Fail merge transactions (§3.3.3) to find
//      the minimum-cost maintenance backbone, validated against Kruskal;
//   2. runs transactional SSSP from a depot and reports route lengths.
//
//   $ ./roadnet_mst [--side=96]

#include <cmath>
#include <cstdio>

#include "algorithms/boruvka.hpp"
#include "algorithms/sssp.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  const auto side = static_cast<graph::Vertex>(cli.get_int("side", 96));
  cli.check_unknown();

  // A weighted road grid: edge weights model segment lengths/costs.
  util::Rng rng(23);
  const graph::Graph unweighted = graph::road_lattice(side, side, 0.0005, rng);
  graph::EdgeList edges;
  for (graph::Vertex u = 0; u < unweighted.num_vertices(); ++u) {
    for (graph::Vertex w : unweighted.neighbors(u)) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  const auto weights =
      graph::random_weights(edges.size(), 0.5f, 8.0f, rng);
  const graph::Graph roads = graph::Graph::from_weighted_edges(
      unweighted.num_vertices(), edges, weights, true);
  std::printf("road network: %u junctions, %llu segments, diameter >= %u\n",
              roads.num_vertices(),
              static_cast<unsigned long long>(roads.num_edges() / 2),
              graph::diameter_lower_bound(roads, 0));

  // --- 1. Minimum spanning backbone via transactional Boruvka.
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap);
    const auto mst = algorithms::run_boruvka(machine, roads, {});
    const double reference = algorithms::mst_reference_weight(roads);
    util::Table table({"quantity", "value"});
    table.row().cell("backbone segments").cell(mst.edges_in_forest);
    table.row().cell("backbone cost").cell(mst.total_weight, 1);
    table.row().cell("Kruskal reference cost").cell(reference, 1);
    table.row().cell("Boruvka rounds").cell(mst.rounds);
    table.row().cell("May-Fail merge losses").cell(mst.failed_merges);
    table.row().cell("time (simulated)")
        .cell(util::format_time_ns(mst.total_time_ns));
    table.print("Minimum-cost backbone (Boruvka, FR & MF transactions)");
    AAM_CHECK(std::abs(mst.total_weight - reference) < reference * 1e-6);
  }

  // --- 2. Shortest routes from the depot (corner junction).
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap);
    algorithms::SsspOptions options;
    options.source = 0;
    const auto routes = algorithms::run_sssp(machine, roads, options);
    // Spot-check against Dijkstra.
    const auto reference = algorithms::sssp_reference(roads, 0);
    for (graph::Vertex v = 0; v < roads.num_vertices(); v += 997) {
      AAM_CHECK(std::abs(routes.distance[v] - reference[v]) < 1e-6);
    }
    util::Table table({"destination", "route cost"});
    const graph::Vertex far = roads.num_vertices() - 1;  // opposite corner
    table.row().cell("center junction")
        .cell(routes.distance[side / 2 * side + side / 2], 1);
    table.row().cell("opposite corner").cell(routes.distance[far], 1);
    table.print("Shortest routes from the depot (transactional SSSP, " +
                std::to_string(routes.rounds) + " rounds, " +
                util::format_time_ns(routes.total_time_ns) + ")");
  }
  return 0;
}
