// Social-network analysis scenario (§1 motivation; Table 1 SNs).
//
// Traverses a synthetic analog of com-youtube (heavy-tailed degrees) and
// shows the end-to-end workflow a network analyst would run: pick the
// engine (AAM vs atomics vs fine locks), search a few transaction sizes
// for this graph's sweet spot, and inspect degrees-of-separation stats.
//
//   $ ./social_bfs [--divisor=32] [--machine=BGQ]

#include <cstdio>

#include "algorithms/bfs.hpp"
#include "graph/analogs.hpp"
#include "graph/gstats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  const auto divisor = static_cast<std::uint64_t>(cli.get_int("divisor", 32));
  const std::string machine_name =
      cli.get_choice("machine", "BGQ", model::machine_names());
  cli.check_unknown();

  const auto& config = model::machine_by_name(machine_name);
  const model::HtmKind kind = config.supported_htm[0];
  const int threads = config.max_threads();

  util::Rng rng(7);
  const auto& analog = graph::analog_by_id("sYT");  // com-youtube
  const graph::Graph g = graph::synthesize(analog, divisor, rng);
  const auto dstats = graph::degree_stats(g);
  std::printf("social graph (~%s analog): %u members, avg degree %.1f, "
              "max degree %u, top-1%% members hold %.0f%% of links\n",
              analog.name.c_str(), g.num_vertices(), dstats.mean, dstats.max,
              dstats.top1pct_edge_share * 100);

  const graph::Vertex celebrity = graph::pick_nonisolated_vertex(g);

  // Engine comparison at this graph's structure.
  util::Table table({"engine", "config", "traversal time", "aborts"});
  double best_aam = 0;
  int best_m = 0;
  for (int m : {2, 8, 24, 64}) {
    mem::SimHeap heap;
    htm::DesMachine machine(config, kind, threads, heap);
    algorithms::BfsOptions options;
    options.root = celebrity;
    options.batch = m;
    const auto r = algorithms::run_bfs(machine, g, options);
    AAM_CHECK(algorithms::validate_bfs_tree(g, celebrity, r.parent));
    table.row().cell("AAM").cell("M=" + std::to_string(m))
        .cell(util::format_time_ns(r.total_time_ns))
        .cell(r.stats.total_aborts());
    if (best_m == 0 || r.total_time_ns < best_aam) {
      best_aam = r.total_time_ns;
      best_m = m;
    }
  }
  // The Graph500 reference and the Galois-like engine: one vertex per
  // activity under CAS or under per-vertex locks.
  struct Baseline {
    const char* engine;
    const char* config;
    core::Mechanism mechanism;
  };
  for (const Baseline& base :
       {Baseline{"Graph500", "atomics", core::Mechanism::kAtomicOps},
        Baseline{"Galois-like", "fine locks", core::Mechanism::kFineLocks}}) {
    mem::SimHeap heap;
    htm::DesMachine machine(config, kind, threads, heap);
    algorithms::BfsOptions options;
    options.root = celebrity;
    options.mechanism = base.mechanism;
    options.batch = 1;
    const auto r = algorithms::run_bfs(machine, g, options);
    table.row().cell(base.engine).cell(base.config)
        .cell(util::format_time_ns(r.total_time_ns)).cell(std::uint64_t{0});
  }
  table.print("BFS engines on " + config.name + " (T=" +
              std::to_string(threads) + "); best AAM at M=" +
              std::to_string(best_m));

  // Degrees of separation from the chosen member.
  const auto levels = graph::bfs_levels(g, celebrity);
  std::vector<std::uint64_t> per_level;
  for (std::uint32_t l : levels) {
    if (l == graph::kInvalidLevel) continue;
    if (l >= per_level.size()) per_level.resize(l + 1, 0);
    ++per_level[l];
  }
  util::Table hops({"hops", "members reached"});
  for (std::size_t l = 0; l < per_level.size(); ++l) {
    hops.row().cell(std::uint64_t(l)).cell(util::format_count(per_level[l]));
  }
  hops.print("Degrees of separation from member " +
             std::to_string(celebrity));
  return 0;
}
