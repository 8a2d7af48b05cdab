// Figure 4 (§5.5): Graph500 BFS with hardware transactions of size M.
//
// For each machine (BGQ, Has-C, Has-P), each threading scenario
// (T=1, one thread per core, one per SMT resource), and each transaction
// size M, run the coarsened AAM BFS and compare against the atomic-CAS
// Graph500 baseline (the paper's horizontal lines). Reported per point:
// runtime, transactions, aborts, buffer overflows, serializations — plus,
// as in the paper's annotations, the ratio of serializations to aborts
// (BGQ) and of overflow aborts to all aborts (Haswell).
//
// Shapes to reproduce (§5.5 discussion):
//  * coarsening amortizes begin/commit: runtime first drops with M;
//  * beyond M_min aborts/serializations grow and the curve turns;
//  * BGQ short mode beats long mode at small M and inverts at large M;
//  * Has-C aborts become dominated by buffer overflows for large M
//    (32KB 8-way L1), while Has-P (larger L1) is barely affected;
//  * paper optima: M_min=80 (BGQ T=16), 144 (BGQ T=64), 2 (Has-C T>=4).

#include <map>

#include "algorithms/bfs.hpp"
#include "baselines/named.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace {

using namespace aam;

struct Point {
  double time_ns = 0;
  htm::HtmStats stats;
};

Point run_point(const model::MachineConfig& config, model::HtmKind kind,
                int threads, int batch, const graph::Graph& g,
                graph::Vertex root, std::uint64_t seed, bool baseline,
                const check::CheckConfig& check_cfg) {
  mem::SimHeap heap;
  htm::DesMachine machine(config, kind, threads, heap, seed);
  bench::ScopedChecker scoped(machine, check_cfg);
  algorithms::BfsOptions options;
  options.root = root;
  options.mechanism = baseline ? core::Mechanism::kAtomicOps
                               : core::Mechanism::kHtmCoarsened;
  options.batch = batch;
  options.recorder = scoped.recorder();
  const auto result = algorithms::run_bfs(machine, g, options);
  AAM_CHECK(algorithms::validate_bfs_tree(g, root, result.parent));
  return {result.total_time_ns, result.stats};
}

struct Scenario {
  const model::MachineConfig* config;
  std::vector<model::HtmKind> kinds;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const int scale = static_cast<int>(cli.get_int("scale", 15));
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 16));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto batch_list = cli.get_int_list(
      "batches", {1, 2, 4, 8, 16, 32, 48, 64, 80, 96, 128, 144, 176, 208,
                  240, 272, 320});
  const std::string only_machine = cli.get_string("machine", "");
  const check::CheckConfig check_cfg = check::check_flag(cli);
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
  cli.check_unknown();

  bench::print_header(
      "Figure 4 — BFS transaction-size sweep (§5.5)",
      "Kronecker 2^" + std::to_string(scale) + " x" +
          std::to_string(edge_factor) +
          "; AAM at each M vs the Graph500 atomics baseline.");

  util::Rng rng(seed);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Vertex root = graph::pick_nonisolated_vertex(g);

  const std::vector<Scenario> scenarios = {
      {&model::bgq(), {model::HtmKind::kBgqShort, model::HtmKind::kBgqLong}},
      {&model::has_c(), {model::HtmKind::kRtm, model::HtmKind::kHle}},
      {&model::has_p(), {model::HtmKind::kRtm, model::HtmKind::kHle}},
  };

  // Paper-reported optima for the summary table.
  const std::map<std::pair<std::string, int>, int> paper_m_min = {
      {{"BGQ", 16}, 80}, {{"BGQ", 64}, 144},
      {{"Has-C", 4}, 2}, {{"Has-C", 8}, 2}};

  util::Table summary({"machine", "mode", "T", "baseline", "best AAM",
                       "M_min", "speedup", "paper M_min"});

  for (const Scenario& scenario : scenarios) {
    const auto& config = *scenario.config;
    if (!only_machine.empty() && config.name != only_machine) continue;
    for (int threads : bench::standard_thread_counts(config)) {
      const Point base = run_point(config, scenario.kinds[0], threads, 1, g,
                                   root, seed, /*baseline=*/true, check_cfg);
      util::Table table({"mode", "M", "runtime", "txns", "aborts",
                         "overflows", "serialized", "annot %"});
      table.row().cell("Atomic-CAS").cell("-")
          .cell(util::format_time_ns(base.time_ns)).cell("-").cell("-")
          .cell("-").cell("-").cell("-");

      for (model::HtmKind kind : scenario.kinds) {
        double best_time = 0;
        int best_m = 0;
        for (std::int64_t m64 : batch_list) {
          const int m = static_cast<int>(m64);
          const Point p = run_point(config, kind, threads, m, g, root, seed,
                                    false, check_cfg);
          const auto& s = p.stats;
          // BGQ annotation: serializations / aborts; Haswell: overflow
          // share of aborts (the percentages printed in Fig 4).
          const double annot =
              config.name == "BGQ"
                  ? (s.total_aborts()
                         ? 100.0 * static_cast<double>(s.serialized) /
                               static_cast<double>(s.total_aborts())
                         : 0.0)
                  : (s.total_aborts()
                         ? 100.0 * static_cast<double>(s.aborts_capacity) /
                               static_cast<double>(s.total_aborts())
                         : 0.0);
          table.row().cell(model::to_string(kind)).cell(m)
              .cell(util::format_time_ns(p.time_ns))
              .cell(s.started).cell(s.total_aborts())
              .cell(s.aborts_capacity).cell(s.serialized).cell(annot, 1);
          if (best_m == 0 || p.time_ns < best_time) {
            best_time = p.time_ns;
            best_m = m;
          }
        }
        const auto paper_it = paper_m_min.find({config.name, threads});
        summary.row().cell(config.name).cell(model::to_string(kind))
            .cell(threads).cell(util::format_time_ns(base.time_ns))
            .cell(util::format_time_ns(best_time)).cell(best_m)
            .cell(bench::speedup_str(base.time_ns / best_time))
            .cell(paper_it == paper_m_min.end()
                      ? std::string("-")
                      : std::to_string(paper_it->second));
      }
      table.print(config.name + ", T=" + std::to_string(threads));
      io.maybe_write_csv(table,
                         config.name + "_T" + std::to_string(threads));
    }
  }

  summary.print("Summary — optimum transaction sizes (paper: §5.5)");
  io.maybe_write_csv(summary, "summary");
  return 0;
}
