// Table 1 (§6.1.2): AAM performance on the 16 real-world SNAP graphs.
//
// Each graph is replaced by its synthetic structural analog (see
// graph/analogs.hpp), shrunk by --divisor (default 16) while preserving
// average degree and structure class. For every graph the harness runs:
//
//   BGQ   (T=64):  Graph500 baseline; AAM at M=24; AAM at the paper's
//                  per-graph optimum M.
//   Haswell (T=8): Graph500 baseline; AAM at M=2; AAM at the paper's
//                  per-graph optimum M; Galois-like fine locks; HAMA-like
//                  BSP engine.
//
// The table prints measured speedups side-by-side with Table 1's values.
// Expected shapes: CNs/WGs benefit most on BGQ; RNs are flat on BGQ but
// respond on Haswell; HAMA is 2-4 orders of magnitude slower (worst on
// high-diameter road networks).

#include <algorithm>

#include "baselines/bsp_engine.hpp"
#include "bench_common.hpp"
#include "graph/analogs.hpp"
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
  const auto divisor = static_cast<std::uint64_t>(cli.get_int("divisor", 16));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool run_hama = cli.get_bool("hama", true);
  std::vector<std::string> ids;
  for (const auto& analog : graph::table1_catalog()) ids.push_back(analog.id);
  const std::vector<std::string> only = cli.get_choice_list("only", ids);
  const bench::RunFlags flags{.check = check::check_flag(cli)};
  cli.check_unknown();

  bench::print_header(
      "Table 1 — real-world graphs (synthetic structural analogs, §6.1.2)",
      "Analog graphs at 1/" + std::to_string(divisor) +
          " of published |V| (use --divisor=1 for full size; --only=cWT,... "
          "to subset).");

  util::Table bgq_table({"ID", "family", "|V|", "d",
                         "S g500 M=24", "paper", "opt M", "S g500 optM",
                         "paper"});
  util::Table has_table({"ID", "S g500 M=2", "paper", "S Galois M=2",
                         "paper", "opt M", "S g500 optM", "paper",
                         "S HAMA", "paper"});

  for (const auto& analog : graph::table1_catalog()) {
    if (!only.empty() && std::find(only.begin(), only.end(), analog.id) ==
                             only.end()) {
      continue;
    }
    util::Rng rng(seed);
    const graph::Graph g = graph::synthesize(analog, divisor, rng);
    const graph::Vertex root = graph::pick_nonisolated_vertex(g);

    // ----- BGQ (T=64, short mode)
    const bench::MachineSpec bgq{model::bgq(), model::HtmKind::kBgqShort, 64,
                                 seed};
    const double bgq_base =
        bfs_time(bgq, flags, g, root, core::Mechanism::kAtomicOps, 1);
    const double bgq_m24 =
        bfs_time(bgq, flags, g, root, core::Mechanism::kHtmCoarsened, 24);
    const double bgq_opt = bfs_time(bgq, flags, g, root,
                                    core::Mechanism::kHtmCoarsened,
                                    analog.paper_bgq_opt_m);
    bgq_table.row().cell(analog.id).cell(graph::to_string(analog.family))
        .cell(util::format_count(g.num_vertices()))
        .cell(g.avg_degree(), 1)
        .cell(bench::speedup_str(bgq_base / bgq_m24))
        .cell(bench::speedup_str(analog.paper_bgq_s_m24))
        .cell(analog.paper_bgq_opt_m)
        .cell(bench::speedup_str(bgq_base / bgq_opt))
        .cell(bench::speedup_str(analog.paper_bgq_s_opt));

    // ----- Haswell (Has-C, T=8, RTM)
    const bench::MachineSpec has_c{model::has_c(), model::HtmKind::kRtm, 8,
                                   seed};
    const double has_base =
        bfs_time(has_c, flags, g, root, core::Mechanism::kAtomicOps, 1);
    const double has_m2 =
        bfs_time(has_c, flags, g, root, core::Mechanism::kHtmCoarsened, 2);
    const double has_opt = bfs_time(has_c, flags, g, root,
                                    core::Mechanism::kHtmCoarsened,
                                    analog.paper_has_opt_m);
    const double galois =
        bfs_time(has_c, flags, g, root, core::Mechanism::kFineLocks, 1);
    double hama = 0;
    if (run_hama) {
      bench::Cell cell(has_c);
      baselines::BspEngine::Result result;
      const auto level =
          baselines::bsp_bfs(cell.machine(), g, root, &result);
      AAM_CHECK(level == graph::bfs_levels(g, root));
      hama = result.total_time_ns;
    }
    has_table.row().cell(analog.id)
        .cell(bench::speedup_str(has_base / has_m2))
        .cell(bench::speedup_str(analog.paper_has_s_g500_m2))
        .cell(bench::speedup_str(galois / has_m2))
        .cell(bench::speedup_str(analog.paper_has_s_galois_m2))
        .cell(analog.paper_has_opt_m)
        .cell(bench::speedup_str(has_base / has_opt))
        .cell(bench::speedup_str(analog.paper_has_s_g500_opt))
        .cell(run_hama ? bench::speedup_str(hama / has_opt) : std::string("-"))
        .cell(analog.paper_has_s_hama >= 1e4
                  ? std::string(">10^4")
                  : util::format_double(analog.paper_has_s_hama, 0));
  }

  bgq_table.print("BG/Q analysis (S = speedup of AAM over Graph500)");
  io.maybe_write_csv(bgq_table, "bgq");
  has_table.print("Haswell analysis");
  io.maybe_write_csv(has_table, "haswell");
  return 0;
}
