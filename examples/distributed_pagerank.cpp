// Distributed PageRank scenario (§6.2).
//
// Ranks the vertices of an Erdős–Rényi graph partitioned across a
// simulated Blue Gene/Q cluster. Rank contributions travel as coalesced
// atomic active messages and are applied at each owner node in coarse
// hardware transactions. The PBGL-like baseline runs the same AM push
// without coarse transactions for comparison, and the result is checked
// against the sequential reference.
//
//   $ ./distributed_pagerank [--vertices=8192] [--nodes=4] [--threads=4]

#include <algorithm>
#include <cstdio>

#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  const auto n = static_cast<graph::Vertex>(cli.get_int("vertices", 8192));
  const int nodes = static_cast<int>(cli.get_int("nodes", 4));
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  const int iterations = static_cast<int>(cli.get_int("iterations", 5));
  cli.check_unknown();

  util::Rng rng(11);
  const graph::Graph g = graph::erdos_renyi(n, 0.004, rng);
  const graph::Block1D part(n, nodes);
  std::printf("graph: %u vertices, %llu edges over %d nodes x %d threads\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), nodes, threads);

  algorithms::DistPrOptions options;
  options.iterations = iterations;

  algorithms::DistPrResult aam;
  {
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort, nodes,
                         threads, heap);
    options.mode = algorithms::DistPrMode::kAam;
    aam = run_distributed_pagerank(cluster, g, part, options);
  }
  algorithms::DistPrResult pbgl;
  {
    // PBGL has no threading: one process per hardware thread (§6.2).
    const graph::Block1D pbgl_part(n, nodes * threads);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort,
                         nodes * threads, 1, heap);
    options.mode = algorithms::DistPrMode::kPbgl;
    pbgl = run_distributed_pagerank(cluster, g, pbgl_part, options);
  }

  // Validate against the sequential reference.
  const auto reference =
      algorithms::pagerank_reference(g, iterations, options.damping);
  double max_err = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_err = std::max(max_err, std::abs(aam.rank[i] - reference[i]));
  }

  util::Table table({"engine", "time (simulated)", "messages", "items/msg",
                     "txn aborts"});
  auto items_per_msg = [](const net::NetStats& s) {
    return s.messages_sent
               ? static_cast<double>(s.items_sent) /
                     static_cast<double>(s.messages_sent)
               : 0.0;
  };
  table.row().cell("AAM (coalesced + coarse HTM)")
      .cell(util::format_time_ns(aam.total_time_ns))
      .cell(aam.net.messages_sent).cell(items_per_msg(aam.net), 1)
      .cell(aam.stats.total_aborts());
  table.row().cell("PBGL-like (per-item atomics)")
      .cell(util::format_time_ns(pbgl.total_time_ns))
      .cell(pbgl.net.messages_sent).cell(items_per_msg(pbgl.net), 1)
      .cell(pbgl.stats.total_aborts());
  table.print("Distributed PageRank, " + std::to_string(iterations) +
              " iterations");
  std::printf("AAM speedup over PBGL-like: %.2fx; max |rank error| vs "
              "reference: %.2e\n\n",
              pbgl.total_time_ns / aam.total_time_ns, max_err);

  // Top-ranked vertices.
  std::vector<graph::Vertex> order(n);
  for (graph::Vertex v = 0; v < n; ++v) order[v] = v;
  std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                    [&](graph::Vertex a, graph::Vertex b) {
                      return aam.rank[a] > aam.rank[b];
                    });
  util::Table top({"rank#", "vertex", "score", "degree"});
  for (int i = 0; i < 5; ++i) {
    top.row().cell(i + 1).cell(std::uint64_t{order[static_cast<std::size_t>(i)]})
        .cell(aam.rank[order[static_cast<std::size_t>(i)]], 6)
        .cell(std::uint64_t{g.degree(order[static_cast<std::size_t>(i)])});
  }
  top.print("Top-5 vertices by PageRank");
  return 0;
}
