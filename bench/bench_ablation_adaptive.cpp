// Ablation (§7 "future work" extension): online selection of M.
//
// The paper's offline analysis (Fig 4) finds the optimum transaction size
// M_min per machine and thread count; §7 sketches a runtime that picks M
// online. This ablation runs the AamRuntime with (a) fixed M values
// bracketing the optimum and (b) the AdaptiveBatch controller, on two
// workloads:
//   * scatter  — every operator touches its own vertex (overhead-bound:
//                big M wins);
//   * hotspot  — operators hammer a small hot set (abort-bound: small M
//                wins).
// The controller should land within ~2x of the best fixed M on both,
// without knowing the workload.

#include "bench_common.hpp"
#include "core/runtime.hpp"

namespace {

using namespace aam;

double run_workload(const model::MachineConfig& config, model::HtmKind kind,
                    int threads, int fixed_m, bool adaptive, bool hotspot,
                    std::uint64_t items, std::uint64_t seed, int* final_m,
                    const check::CheckConfig& check_cfg) {
  mem::SimHeap heap;
  htm::DesMachine machine(config, kind, threads, heap, seed);
  bench::ScopedChecker scoped(machine, check_cfg);
  const std::uint64_t span = hotspot ? 16 : items;
  auto data = heap.alloc<std::uint64_t>(span * 8);
  core::AamRuntime rt(machine,
                      {.batch = fixed_m, .recorder = scoped.recorder()});
  core::AdaptiveBatch controller;
  if (adaptive) rt.set_adaptive(&controller);
  rt.for_each(items, [&](auto& access, std::uint64_t i) {
    access.fetch_add(data[(i % span) * 8], std::uint64_t{1});
  });
  if (final_m != nullptr) *final_m = adaptive ? controller.batch() : fixed_m;
  return machine.makespan();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const auto items = static_cast<std::uint64_t>(cli.get_int("items", 1 << 16));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const check::CheckConfig check_cfg = check::check_flag(cli);
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
  cli.check_unknown();

  bench::print_header(
      "Ablation — online selection of M (§7 extension)",
      "Fixed transaction sizes vs the AdaptiveBatch controller on an "
      "overhead-bound and an abort-bound workload (BGQ short mode, T=16).");

  const auto& config = model::bgq();
  const auto kind = model::HtmKind::kBgqShort;

  for (bool hotspot : {false, true}) {
    util::Table table({"policy", "runtime", "vs best fixed", "final M"});
    double best_fixed = 0;
    std::vector<std::pair<std::string, std::pair<double, int>>> rows;
    for (int m : {1, 8, 32, 80, 144, 320}) {
      int final_m = 0;
      const double t = run_workload(config, kind, 16, m, false, hotspot,
                                    items, seed, &final_m, check_cfg);
      rows.emplace_back("fixed M=" + std::to_string(m),
                        std::make_pair(t, final_m));
      if (best_fixed == 0 || t < best_fixed) best_fixed = t;
    }
    int final_m = 0;
    const double adaptive_t = run_workload(config, kind, 16, 8, true, hotspot,
                                           items, seed, &final_m, check_cfg);
    rows.emplace_back("adaptive", std::make_pair(adaptive_t, final_m));

    for (const auto& [name, tm] : rows) {
      table.row().cell(name).cell(util::format_time_ns(tm.first))
          .cell(bench::speedup_str(tm.first / best_fixed) + "x")
          .cell(tm.second);
    }
    table.print(hotspot ? "hotspot workload (abort-bound)"
                        : "scatter workload (overhead-bound)");
    io.maybe_write_csv(table, hotspot ? "hotspot" : "scatter");
  }
  return 0;
}
