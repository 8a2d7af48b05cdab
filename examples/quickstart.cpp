// Quickstart: the smallest complete AAM program.
//
// Builds a graph, creates a simulated Blue Gene/Q node, and runs a BFS
// whose vertex visits execute as coarse hardware transactions — the core
// idea of Atomic Active Messages. Compare against the Graph500-style
// atomics baseline and print what the HTM did.
//
//   $ ./quickstart [--scale=16] [--batch=16] [--threads=64]

#include <cstdio>

#include "algorithms/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 16));
  const int batch = static_cast<int>(cli.get_int("batch", 16));
  const int threads = static_cast<int>(cli.get_int("threads", 64));
  cli.check_unknown();

  // 1. A power-law graph, Graph500 style.
  util::Rng rng(42);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = 16;
  const graph::Graph g = graph::kronecker(params, rng);
  std::printf("graph: %u vertices, %llu directed edges, avg degree %.1f\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), g.avg_degree());

  // 2. A simulated machine: one BG/Q node, HTM in short running mode.
  //    All algorithm state must live on the machine's SimHeap.
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort, threads,
                          heap);

  // 3. AAM BFS: vertex visits are batched `batch` per hardware transaction.
  const graph::Vertex root = graph::pick_nonisolated_vertex(g);
  algorithms::BfsOptions options;
  options.root = root;
  options.mechanism = core::Mechanism::kHtmCoarsened;
  options.batch = batch;
  const algorithms::BfsResult aam = algorithms::run_bfs(machine, g, options);
  AAM_CHECK(algorithms::validate_bfs_tree(g, root, aam.parent));

  // 4. The fine-grained atomics baseline on an identical machine.
  mem::SimHeap heap2;
  htm::DesMachine machine2(model::bgq(), model::HtmKind::kBgqShort, threads,
                           heap2);
  options.mechanism = core::Mechanism::kAtomicOps;  // Graph500 reference
  options.batch = 1;
  const algorithms::BfsResult base = algorithms::run_bfs(machine2, g, options);

  util::Table table({"mechanism", "time (simulated)", "txns", "aborts",
                     "serialized"});
  table.row().cell("AAM coarse HTM (M=" + std::to_string(batch) + ")")
      .cell(util::format_time_ns(aam.total_time_ns))
      .cell(aam.stats.started).cell(aam.stats.total_aborts())
      .cell(aam.stats.serialized);
  table.row().cell("Graph500 atomics")
      .cell(util::format_time_ns(base.total_time_ns))
      .cell(std::uint64_t{0}).cell(std::uint64_t{0}).cell(std::uint64_t{0});
  table.print("BFS from vertex " + std::to_string(root) + " (visited " +
              util::format_count(aam.vertices_visited) + " vertices)");

  std::printf("\ncoarsening speedup over atomics: %.2fx\n",
              base.total_time_ns / aam.total_time_ns);
  return 0;
}
