// Figure 7a/7b (§6.1.3): BFS strong scaling with the thread count T.
//
// Kronecker graph (paper: 2^21 vertices / 2^24 edges; scaled default
// 2^15/2^18). On BG/Q, AAM utilizes on-node parallelism better than
// Graph500 atomics; on Haswell both scale similarly, ahead of the
// Galois-like engine and ~2 orders of magnitude over HAMA (SNAP trails
// HAMA by another 2-3x). AAM runs at the scale-appropriate M
// (--aam-batch; the paper's 144 applies at |V|=2^21).

#include "baselines/bsp_engine.hpp"
#include "baselines/named.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace {

using namespace aam;

double bfs_time(const bench::MachineSpec& spec, const bench::RunFlags& flags,
                const graph::Graph& g, graph::Vertex root,
                core::Mechanism mechanism, int batch) {
  return bench::checked_bfs(spec, flags, g, root, {.fixed = mechanism},
                            batch)
      .total_time_ns;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const int scale = static_cast<int>(cli.get_int("scale", 15));
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 8));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool run_hama = cli.get_bool("hama", true);
  // The paper's M=144 optimum holds at |V|=2^21; at scaled-down sizes the
  // conflict-bound optimum is smaller (see Fig 4 / EXPERIMENTS.md).
  const int aam_batch = static_cast<int>(cli.get_int("aam-batch", 16));
  const bench::RunFlags flags{.check = check::check_flag(cli)};
  cli.check_unknown();

  bench::print_header(
      "Figure 7a/7b — BFS scalability with T (§6.1.3)",
      "Kronecker 2^" + std::to_string(scale) + " x" +
          std::to_string(edge_factor) + " (paper: 2^21 x 8).");

  util::Rng rng(seed);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Vertex root = graph::pick_nonisolated_vertex(g);

  // --- 7a: BG/Q
  {
    util::Table table({"T", "AAM-BGQ (M=" + std::to_string(aam_batch) + ")",
                       "Graph500-BGQ", "AAM speedup"});
    for (int t : {1, 2, 4, 8, 16, 32, 64}) {
      const bench::MachineSpec bgq{model::bgq(), model::HtmKind::kBgqShort, t,
                                   seed};
      const double aam = bfs_time(bgq, flags, g, root,
                                  core::Mechanism::kHtmCoarsened, aam_batch);
      const double base =
          bfs_time(bgq, flags, g, root, core::Mechanism::kAtomicOps, 1);
      table.row().cell(t).cell(util::format_time_ns(aam))
          .cell(util::format_time_ns(base))
          .cell(bench::speedup_str(base / aam));
    }
    table.print("Fig 7a — BG/Q");
    io.maybe_write_csv(table, "7a");
  }

  // --- 7b: Haswell with the full comparator set
  {
    util::Table table({"T", "AAM (M=2)", "Graph500", "Galois-like",
                       "HAMA-like", "SNAP-like"});
    for (int t : {1, 2, 4, 8}) {
      const bench::MachineSpec has_c{model::has_c(), model::HtmKind::kRtm, t,
                                     seed};
      const double aam =
          bfs_time(has_c, flags, g, root, core::Mechanism::kHtmCoarsened, 2);
      const double base =
          bfs_time(has_c, flags, g, root, core::Mechanism::kAtomicOps, 1);
      const double galois =
          bfs_time(has_c, flags, g, root, core::Mechanism::kFineLocks, 1);
      double hama = 0;
      if (run_hama) {
        bench::Cell cell(has_c);
        baselines::BspEngine::Result result;
        baselines::bsp_bfs(cell.machine(), g, root, &result);
        hama = result.total_time_ns;
      }
      bench::Cell snap_cell(has_c);
      const double snap =
          baselines::snap_bfs(snap_cell.machine(), g, root).total_time_ns;
      table.row().cell(t).cell(util::format_time_ns(aam))
          .cell(util::format_time_ns(base))
          .cell(util::format_time_ns(galois))
          .cell(run_hama ? util::format_time_ns(hama) : std::string("-"))
          .cell(util::format_time_ns(snap));
    }
    table.print("Fig 7b — Haswell (Has-C)");
    io.maybe_write_csv(table, "7b");
  }
  return 0;
}
