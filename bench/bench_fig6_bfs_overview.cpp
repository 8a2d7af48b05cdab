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

#include "algorithms/bfs.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "baselines/named.hpp"
#include "bench_common.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace {

using namespace aam;

double run_one(const model::MachineConfig& config, model::HtmKind kind,
               int threads, int batch, const graph::Graph& g,
               graph::Vertex root, std::uint64_t seed,
               core::MechanismSelection selection,
               const check::CheckConfig& check_cfg) {
  mem::SimHeap heap;
  htm::DesMachine machine(config, kind, threads, heap, seed);
  bench::ScopedChecker scoped(machine, check_cfg);
  // The auto policy probes the concrete input graph (degree, skew) the
  // sweep cell is about to run.
  core::AutoPolicy policy;
  algorithms::BfsOptions options;
  options.root = root;
  if (selection.is_auto()) {
    policy = analysis::make_auto_policy(
        config, kind, analysis::workload_from_graph(g, threads, batch));
    options.auto_policy = &policy;
    if (scoped.checker() != nullptr) {
      scoped.checker()->set_capacity_policy(&policy);
    }
  } else {
    options.mechanism = *selection.fixed;
  }
  options.batch = batch;
  options.recorder = scoped.recorder();
  const auto r = algorithms::run_bfs(machine, g, options);
  AAM_CHECK(algorithms::validate_bfs_tree(g, root, r.parent));
  return r.total_time_ns;
}

}  // namespace

int main(int argc, char** argv) {
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
  const check::CheckConfig check_cfg = check::check_flag(cli);
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
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
        std::string(selection.is_auto() ? "auto"
                                        : core::to_string(*selection.fixed)) +
        " (M=" + std::to_string(mr.batch) + ")";
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
        const double base = run_one(
            *mr.config, mr.kind, mr.threads, mr.batch, g, root, seed,
            {.fixed = core::Mechanism::kAtomicOps}, check_cfg);
        const double aam =
            run_one(*mr.config, mr.kind, mr.threads, mr.batch, g, root,
                    seed, selection, check_cfg);
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
