// Figure 5i (§5.7): distributed activities via the ownership protocol.
//
// Each process issues x transactions; each marks a local and b remote
// randomly selected vertices, acquiring the remote elements' ownership
// markers first (§4.3). The four paper scenarios:
//   O-1 (x=10^3, a=5, b=1)   O-2 (x=10^4, a=5, b=1)
//   O-3 (x=10^3, a=7, b=3)   O-4 (x=10^4, a=7, b=3)
// Expected shape: O-1 fastest; O-3 slower (more remote acquisitions);
// O-2/O-4 follow the same patterns with backoff overheads on top.

#include "bench_common.hpp"
#include "core/ownership.hpp"

int main(int argc, char** argv) {
  using namespace aam;
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const int nodes = static_cast<int>(cli.get_int("nodes", 8));
  const auto vertices =
      static_cast<graph::Vertex>(cli.get_int("vertices", 1 << 14));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int scale_x = static_cast<int>(cli.get_int("scale-x", 10));
  cli.check_unknown();

  bench::print_header(
      "Figure 5i — ownership protocol for distributed activities (§5.7)",
      "BGQ, " + std::to_string(nodes) + " nodes; x scaled by 1/" +
          std::to_string(scale_x) + " of the paper's 10^3/10^4 defaults "
          "(override with --scale-x=1).");

  struct Scenario {
    const char* name;
    int x, a, b;
  };
  const std::vector<Scenario> scenarios = {
      {"O-1", 1000 / scale_x, 5, 1},
      {"O-2", 10000 / scale_x, 5, 1},
      {"O-3", 1000 / scale_x, 7, 3},
      {"O-4", 10000 / scale_x, 7, 3},
  };

  util::Table table({"scenario", "x/process", "a", "b", "total time",
                     "CAS fails", "backoffs", "blocked", "time/txn"});
  for (const Scenario& s : scenarios) {
    bench::Cell cell({model::bgq(), model::HtmKind::kBgqShort, 1, seed, nodes});
    auto markers = cell.heap().alloc<std::uint64_t>(vertices);
    auto values = cell.heap().alloc<std::uint64_t>(vertices);
    graph::Block1D part(vertices, nodes);
    core::OwnershipProtocol proto(cell.cluster(), markers, values, part);
    core::OwnershipProtocol::Params params;
    params.txns_per_process = s.x;
    params.local_elements = s.a;
    params.remote_elements = s.b;
    params.seed = seed;
    const auto stats = proto.run(params);

    AAM_CHECK(stats.transactions_completed ==
              static_cast<std::uint64_t>(nodes) *
                  static_cast<std::uint64_t>(s.x));
    const double per_txn =
        stats.makespan_ns / static_cast<double>(stats.transactions_completed);
    table.row().cell(s.name).cell(s.x).cell(s.a).cell(s.b)
        .cell(util::format_time_ns(stats.makespan_ns))
        .cell(stats.marker_cas_failures).cell(stats.backoffs)
        .cell(stats.local_blocked).cell(util::format_time_ns(per_txn));
  }
  table.print("Ownership-protocol scenarios (total time to run all "
              "distributed transactions)");
  io.maybe_write_csv(table, "");
  std::printf("\npaper shape: O-1 fastest; O-3 slower than O-1 (more remote "
              "elements); O-2/O-4 mirror O-1/O-3 with backoff overheads.\n");
  return 0;
}
