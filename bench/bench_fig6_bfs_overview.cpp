// Figure 6 (§6.1.1): intra-node Graph500 BFS vs AAM over graph size and
// density.
//
// Kronecker power-law graphs with varying |V| and average degree; AAM runs
// at the §5.5 optimum M (144 for BGQ T=64, 2 for Has-C T=8). Paper shapes:
//   * BGQ: AAM up to ~2x (102%) for sparse graphs (~2M vertices, d~4);
//     the gain shrinks as d grows (denser -> more conflicting coarse
//     transactions).
//   * Haswell: a steady ~27% win, insensitive to d (M=2 transactions do
//     not pick up more conflicts as density grows).

#include <string>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const auto scales = cli.get_int_list("scales", {14, 16});
  const auto degrees = cli.get_int_list("degrees", {2, 4, 8, 16, 32, 64});
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // The paper's optima (144 / 2) apply at |V| >= 2^20; the conflict-bound
  // optimum shrinks with |V| (see EXPERIMENTS.md), so the default uses a
  // mid-range M for the scaled-down sweep.
  const int bgq_batch = static_cast<int>(cli.get_int("bgq-batch", 32));
  const int has_batch = static_cast<int>(cli.get_int("has-batch", 2));
  // Which mechanism plays the "AAM" role against the Graph500 atomics
  // baseline (default: coarse HTM, the paper's configuration).
  const core::MechanismSelection selection =
      core::mechanism_selection_flag(cli, "mechanism", "htm");
  const bench::RunFlags flags{.check = check::check_flag(cli)};
  cli.check_unknown();

  bench::print_header(
      "Figure 6 — intra-node BFS overview: Graph500 vs AAM (§6.1.1)",
      "Kronecker graphs over |V| and average degree d; AAM at the §5.5 "
      "optimum M per machine (paper sizes 2^20..2^28 scale via --scales).");

  struct MachineRun {
    const model::MachineConfig* config;
    model::HtmKind kind;
    int threads;
    int batch;
  };
  const std::vector<MachineRun> machines = {
      {&model::bgq(), model::HtmKind::kBgqShort, 64, bgq_batch},
      {&model::has_c(), model::HtmKind::kRtm, 8, has_batch},
  };

  for (const MachineRun& mr : machines) {
    const std::string contender =
        bench::label(selection) + " (M=" + std::to_string(mr.batch) + ")";
    util::Table table({"|V|", "edge factor", "measured d", "Graph500",
                       contender, "speedup"});
    for (std::int64_t scale : scales) {
      for (std::int64_t d : degrees) {
        util::Rng rng(seed);
        graph::KroneckerParams params;
        params.scale = static_cast<int>(scale);
        // Undirected CSR doubles each generated edge, so edge_factor ~ d/2.
        params.edge_factor = std::max<int>(1, static_cast<int>(d / 2));
        const graph::Graph g = graph::kronecker(params, rng);
        const graph::Vertex root = graph::pick_nonisolated_vertex(g);
        const bench::MachineSpec spec{*mr.config, mr.kind, mr.threads, seed};
        const double base =
            bench::checked_bfs(spec, flags, g, root,
                               {.fixed = core::Mechanism::kAtomicOps},
                               mr.batch)
                .total_time_ns;
        const double aam =
            bench::checked_bfs(spec, flags, g, root, selection, mr.batch)
                .total_time_ns;
        table.row().cell("2^" + std::to_string(scale))
            .cell(std::uint64_t(params.edge_factor))
            .cell(g.avg_degree(), 1)
            .cell(util::format_time_ns(base))
            .cell(util::format_time_ns(aam))
            .cell(bench::speedup_str(base / aam));
      }
    }
    table.print(mr.config->name + ", T=" + std::to_string(mr.threads));
    io.maybe_write_csv(table, mr.config->name);
  }
  return 0;
}
