// Figure 7c/7d/7e (§6.2): distributed PageRank, AAM vs the PBGL-like
// active-message baseline, on Erdős–Rényi graphs.
//
// The paper scales (c) the node count N, (d) the thread/process count T,
// and (e) the per-node vertex count |V_i|, and finds AAM ~3-10x faster in
// every scenario thanks to activity coalescing and better utilization of
// intra-node parallelism.

#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"

namespace {

using namespace aam;

struct RunResult {
  double aam_ns = 0;
  double pbgl_ns = 0;
};

RunResult run_pair(const graph::Graph& g, int nodes, int threads,
                   int iterations, std::uint64_t seed,
                   const check::CheckConfig& check_cfg,
                   const std::string& fault_spec) {
  algorithms::DistPrOptions options;
  options.iterations = iterations;
  RunResult out;
  std::vector<double> aam_rank;
  {
    const graph::Block1D part(g.num_vertices(), nodes);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort, nodes,
                         threads, heap, seed);
    bench::ScopedChecker scoped(cluster.machine(), check_cfg);
    bench::ScopedFault fault(cluster, fault_spec, seed);
    options.mode = algorithms::DistPrMode::kAam;
    options.recorder = scoped.recorder();
    const auto r = run_distributed_pagerank(cluster, g, part, options);
    out.aam_ns = r.total_time_ns;
    aam_rank = r.rank;
  }
  {
    // PBGL has no threading (§6.2): one *process* per hardware thread, so
    // even node-local contributions cross the messaging layer.
    const graph::Block1D part(g.num_vertices(), nodes * threads);
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort,
                         nodes * threads, 1, heap, seed);
    bench::ScopedChecker scoped(cluster.machine(), check_cfg);
    bench::ScopedFault fault(cluster, fault_spec, seed);
    options.mode = algorithms::DistPrMode::kPbgl;
    options.recorder = scoped.recorder();
    const auto r = run_distributed_pagerank(cluster, g, part, options);
    out.pbgl_ns = r.total_time_ns;
    // Both engines must compute the same ranks (up to float32 payloads).
    const auto reference = algorithms::pagerank_reference(
        g, iterations, options.damping);
    for (std::size_t i = 0; i < reference.size(); i += 97) {
      AAM_CHECK(std::abs(aam_rank[i] - reference[i]) < 1e-4);
      AAM_CHECK(std::abs(r.rank[i] - reference[i]) < 1e-4);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const auto base_vertices =
      static_cast<graph::Vertex>(cli.get_int("vertices", 1 << 13));
  const double er_p = cli.get_double("er-p", 0.005);
  const int iterations = static_cast<int>(cli.get_int("iterations", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const check::CheckConfig check_cfg = check::check_flag(cli);
  const std::string fault_spec = bench::get_fault_spec(cli);
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
  cli.check_unknown();

  bench::print_header(
      "Figure 7c/7d/7e — distributed PageRank: AAM vs PBGL-like (§6.2)",
      "Erdős–Rényi p=" + util::format_double(er_p, 4) + ", BG/Q cluster "
      "(paper sizes up to 2^23 vertices scale via --vertices).");

  // --- 7c: scale the node count N.
  {
    util::Rng rng(seed);
    const graph::Graph g = graph::erdos_renyi(base_vertices, er_p, rng);
    util::Table table({"N", "T/node", "AAM", "PBGL-like", "speedup"});
    for (int nodes : {2, 4, 8, 16}) {
      const RunResult r = run_pair(g, nodes, 4, iterations, seed, check_cfg,
                                   fault_spec);
      table.row().cell(nodes).cell(4).cell(util::format_time_ns(r.aam_ns))
          .cell(util::format_time_ns(r.pbgl_ns))
          .cell(bench::speedup_str(r.pbgl_ns / r.aam_ns));
    }
    table.print("Fig 7c — scaling N (|V|=" +
                util::format_count(base_vertices) + ")");
    io.maybe_write_csv(table, "7c");
  }

  // --- 7d: scale the per-node thread count T.
  {
    util::Rng rng(seed);
    const graph::Graph g = graph::erdos_renyi(base_vertices, er_p, rng);
    util::Table table({"T/node", "N", "AAM", "PBGL-like", "speedup"});
    for (int threads : {1, 2, 4, 8, 16}) {
      const RunResult r = run_pair(g, 4, threads, iterations, seed,
                                   check_cfg, fault_spec);
      table.row().cell(threads).cell(4).cell(util::format_time_ns(r.aam_ns))
          .cell(util::format_time_ns(r.pbgl_ns))
          .cell(bench::speedup_str(r.pbgl_ns / r.aam_ns));
    }
    table.print("Fig 7d — scaling T (N=4)");
    io.maybe_write_csv(table, "7d");
  }

  // --- 7e: scale |V_i| (vertices per node) at fixed N.
  {
    util::Table table({"|V| total", "|V_i|", "AAM", "PBGL-like", "speedup"});
    for (int shift : {-2, -1, 0, 1}) {
      const auto n = static_cast<graph::Vertex>(
          shift >= 0 ? base_vertices << shift : base_vertices >> -shift);
      util::Rng rng(seed);
      // Keep the average degree constant as |V| grows (sparser p).
      const double p = er_p * static_cast<double>(base_vertices) /
                       static_cast<double>(n);
      const graph::Graph g = graph::erdos_renyi(n, p, rng);
      const RunResult r = run_pair(g, 4, 4, iterations, seed, check_cfg,
                                   fault_spec);
      table.row().cell(util::format_count(n))
          .cell(util::format_count(n / 4))
          .cell(util::format_time_ns(r.aam_ns))
          .cell(util::format_time_ns(r.pbgl_ns))
          .cell(bench::speedup_str(r.pbgl_ns / r.aam_ns));
    }
    table.print("Fig 7e — scaling |V_i| (N=4, T=4)");
    io.maybe_write_csv(table, "7e");
  }
  return 0;
}
