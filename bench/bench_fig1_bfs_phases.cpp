// Figure 1 (§1): per-phase duration of an intra-node BFS traversal,
// BG/Q fine-grained atomics vs AAM coarse hardware transactions.
//
// The paper's setup: 64 threads on BG/Q, one transaction modifies 2^7
// vertices, Kronecker graph with power-law degrees. Each BFS level
// ("phase") is timed separately; AAM's coarse transactions win on the
// heavy middle levels where most of the frontier lives.

#include "algorithms/bfs.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const int scale = static_cast<int>(cli.get_int("scale", 16));
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 16));
  const int threads = static_cast<int>(cli.get_int("threads", 64));
  const int batch = static_cast<int>(cli.get_int("batch", 128));  // 2^7
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bench::RunFlags flags{.check = check::check_flag(cli)};
  cli.check_unknown();

  bench::print_header(
      "Figure 1 — BFS phase durations, BG/Q atomics vs AAM-HTM (§1)",
      "Kronecker 2^" + std::to_string(scale) + " x" +
          std::to_string(edge_factor) + ", T=" + std::to_string(threads) +
          ", one transaction modifies " + std::to_string(batch) +
          " vertices");

  util::Rng rng(seed);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Vertex root = graph::pick_nonisolated_vertex(g);

  const bench::MachineSpec bgq{model::bgq(), model::HtmKind::kBgqShort,
                               threads, seed};
  const algorithms::BfsResult atomics_result = bench::checked_bfs(
      bgq, flags, g, root, {.fixed = core::Mechanism::kAtomicOps}, 1);
  const algorithms::BfsResult aam_result = bench::checked_bfs(
      bgq, flags, g, root, {.fixed = core::Mechanism::kHtmCoarsened},
      batch);

  util::Table table({"phase (BFS level)", "atomics (BGQ-CAS)",
                     "AAM-HTM (M=" + std::to_string(batch) + ")",
                     "speedup"});
  const std::size_t levels = std::max(atomics_result.level_times_ns.size(),
                                      aam_result.level_times_ns.size());
  for (std::size_t l = 0; l < levels; ++l) {
    const double at = l < atomics_result.level_times_ns.size()
                          ? atomics_result.level_times_ns[l]
                          : 0.0;
    const double am = l < aam_result.level_times_ns.size()
                          ? aam_result.level_times_ns[l]
                          : 0.0;
    table.row().cell(std::uint64_t(l)).cell(util::format_time_ns(at))
        .cell(util::format_time_ns(am))
        .cell(am > 0 ? bench::speedup_str(at / am) : "-");
  }
  table.row().cell("TOTAL")
      .cell(util::format_time_ns(atomics_result.total_time_ns))
      .cell(util::format_time_ns(aam_result.total_time_ns))
      .cell(bench::speedup_str(atomics_result.total_time_ns /
                               aam_result.total_time_ns));
  table.print("Per-phase traversal time (simulated)");
  io.maybe_write_csv(table, "");

  std::printf(
      "\nAAM run: %llu txn started, %llu aborts (%llu conflict / %llu "
      "capacity / %llu other), %llu serialized\n",
      static_cast<unsigned long long>(aam_result.stats.started),
      static_cast<unsigned long long>(aam_result.stats.total_aborts()),
      static_cast<unsigned long long>(aam_result.stats.aborts_conflict),
      static_cast<unsigned long long>(aam_result.stats.aborts_capacity),
      static_cast<unsigned long long>(aam_result.stats.aborts_other),
      static_cast<unsigned long long>(aam_result.stats.serialized));
  return 0;
}
