// Figure 5a/5b (§5.5.3): abort-reason composition vs T at fixed M=2,
// Has-C vs Has-P.
//
// The paper's "interesting insight": with growing T, Has-C accumulates
// *more buffer overflows than memory conflicts* (tiny 32KB L1 shared by
// SMT siblings evicting speculative state), while Has-P shows the reverse
// trend (its larger L1 rarely overflows, so conflicts dominate).

#include "algorithms/bfs.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const int scale = static_cast<int>(cli.get_int("scale", 14));
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 16));
  const int batch = static_cast<int>(cli.get_int("batch", 2));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const check::CheckConfig check_cfg = check::check_flag(cli);
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
  cli.check_unknown();

  bench::print_header(
      "Figure 5a/5b — abort reasons vs T at M=" + std::to_string(batch) +
          " (§5.5.3)",
      "AAM BFS on Kronecker 2^" + std::to_string(scale) +
          "; memory conflicts vs buffer overflows, Has-C vs Has-P.");

  util::Rng rng(seed);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Vertex root = graph::pick_nonisolated_vertex(g);

  util::Table table({"machine", "T", "conflicts", "overflows", "other",
                     "overflow share %", "dominant"});
  for (const model::MachineConfig* config : {&model::has_c(),
                                             &model::has_p()}) {
    for (int threads = 2; threads <= config->max_threads(); threads *= 2) {
      mem::SimHeap heap;
      htm::DesMachine machine(*config, model::HtmKind::kRtm, threads, heap,
                              seed);
      bench::ScopedChecker scoped(machine, check_cfg);
      algorithms::BfsOptions options;
      options.root = root;
      options.batch = batch;
      options.recorder = scoped.recorder();
      const auto result = algorithms::run_bfs(machine, g, options);
      AAM_CHECK(algorithms::validate_bfs_tree(g, root, result.parent));
      const auto& s = result.stats;
      const double share =
          s.total_aborts()
              ? 100.0 * static_cast<double>(s.aborts_capacity) /
                    static_cast<double>(s.total_aborts())
              : 0.0;
      table.row().cell(config->name).cell(threads)
          .cell(s.aborts_conflict).cell(s.aborts_capacity)
          .cell(s.aborts_other).cell(share, 1)
          .cell(s.aborts_capacity > s.aborts_conflict ? "overflows"
                                                      : "conflicts");
    }
  }
  table.print("Abort composition (paper shape: Has-C overflow-dominated, "
              "Has-P conflict-dominated)");
  io.maybe_write_csv(table, "");
  return 0;
}
