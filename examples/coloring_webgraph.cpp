// Web-graph scheduling scenario (Table 1 WGs; §3.3.4/§3.3.5).
//
// A crawler wants to re-fetch pages such that no two linked pages are
// fetched in the same batch (politeness / cache coherence): that is graph
// coloring — colors become fetch batches. Afterwards, ST connectivity
// answers "does page A link-reach page B?" with two concurrent
// transactional BFS waves.
//
//   $ ./coloring_webgraph [--divisor=32]

#include <cstdio>

#include "algorithms/coloring.hpp"
#include "algorithms/st_connectivity.hpp"
#include "graph/analogs.hpp"
#include "graph/gstats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  const auto divisor = static_cast<std::uint64_t>(cli.get_int("divisor", 32));
  cli.check_unknown();

  util::Rng rng(31);
  const auto& analog = graph::analog_by_id("wGL");  // web-Google
  const graph::Graph web = graph::synthesize(analog, divisor, rng);
  const auto dstats = graph::degree_stats(web);
  std::printf("web graph (~%s analog): %u pages, max in+out degree %u\n",
              analog.name.c_str(), web.num_vertices(), dstats.max);

  // --- Batch scheduling via Boman coloring (FR & MF).
  {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap);
    const auto coloring = algorithms::run_boman_coloring(machine, web, {});
    AAM_CHECK(algorithms::validate_coloring(web, coloring.color));

    std::vector<std::uint64_t> batch_sizes(coloring.colors_used + 1, 0);
    for (std::uint32_t c : coloring.color) ++batch_sizes[c];
    util::Table table({"fetch batch", "pages"});
    for (std::uint32_t c = 1;
         c <= coloring.colors_used && table.num_rows() < 8; ++c) {
      table.row().cell(std::uint64_t{c})
          .cell(util::format_count(batch_sizes[c]));
    }
    table.print("Fetch schedule: " + std::to_string(coloring.colors_used) +
                " conflict-free batches in " +
                std::to_string(coloring.rounds) + " rounds (" +
                util::format_count(coloring.recolor_requests) +
                " conflicts resolved by failure handlers, " +
                util::format_time_ns(coloring.total_time_ns) + ")");
  }

  // --- Reachability queries via ST connectivity (FR & AS).
  {
    const graph::Vertex a = graph::pick_nonisolated_vertex(web, 1);
    const graph::Vertex b = graph::pick_nonisolated_vertex(web, 2);
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap);
    algorithms::StConnOptions options;
    options.s = a;
    options.t = b;
    const auto result = run_st_connectivity(machine, web, options);
    std::printf("\nreachability(page %u <-> page %u): %s "
                "(two-wave search colored %s pages in %d levels, %s)\n",
                a, b, result.connected ? "CONNECTED" : "not connected",
                util::format_count(result.vertices_colored).c_str(),
                result.levels,
                util::format_time_ns(result.total_time_ns).c_str());
  }
  return 0;
}
