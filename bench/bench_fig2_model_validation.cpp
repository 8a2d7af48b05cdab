// Figure 2 (§5.3): validation of the performance model.
//
// One thread executes activities that modify N distinct vertices, either as
// N atomic CAS operations or as one hardware transaction, for N swept over
// a range. The measured times are fitted to t(N) = A*N + B; the paper's
// claims to reproduce are:
//   * B_HTM > B_AT (transactions pay begin/commit overhead),
//   * A_HTM < A_AT (per-vertex cost grows slower than atomics),
//   * hence a crossover at modest N — coarse activities amortize HTM.
// Shown for Has-C RTM and BGQ long mode, as in the paper's plot.

#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "model/perf_model.hpp"

namespace {

using namespace aam;

class ActivityWorker : public htm::Worker {
 public:
  ActivityWorker(std::span<std::uint64_t> vertices, int n_per_activity,
                 int activities, bool use_htm)
      : vertices_(vertices), n_(n_per_activity), left_(activities),
        use_htm_(use_htm) {}

  bool next(htm::ThreadCtx& ctx) override {
    if (left_ == 0) return false;
    --left_;
    // Each activity touches n_ distinct vertices, one per cache line.
    const std::size_t base =
        (static_cast<std::size_t>(left_) * static_cast<std::size_t>(n_) * 8) %
        vertices_.size();
    if (use_htm_) {
      ctx.stage_transaction([this, base](htm::Txn& tx) {
        for (int i = 0; i < n_; ++i) {
          const std::size_t idx = (base + static_cast<std::size_t>(i) * 8) %
                                  vertices_.size();
          const auto v = tx.load(vertices_[idx]);
          tx.store(vertices_[idx], v + 1);
        }
      });
    } else {
      for (int i = 0; i < n_; ++i) {
        const std::size_t idx =
            (base + static_cast<std::size_t>(i) * 8) % vertices_.size();
        // The §5.4.1 "mark a vertex" CAS; the cost model charges the op
        // whether or not the compare succeeds.
        ctx.cas(vertices_[idx], std::uint64_t{0}, std::uint64_t{1});
      }
    }
    return true;
  }

 private:
  std::span<std::uint64_t> vertices_;
  int n_;
  int left_;
  bool use_htm_;
};

double measure(const model::MachineConfig& config, model::HtmKind kind,
               int n, int activities, bool use_htm) {
  mem::SimHeap heap;
  htm::DesMachine machine(config, kind, 1, heap);
  auto vertices = heap.alloc<std::uint64_t>(
      static_cast<std::size_t>(std::max(n * 8, 4096)));
  ActivityWorker worker(vertices, n, activities, use_htm);
  machine.set_worker(0, &worker);
  machine.run();
  return machine.makespan() / static_cast<double>(activities);
}

void run_machine(const model::MachineConfig& config, model::HtmKind kind,
                 aam::bench::BenchIo& io, int activities) {
  const std::vector<double> sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<double> atomic_times, htm_times;
  util::Table table({"machine", "mechanism", "N", "time/activity [ns]",
                     "time/vertex [ns]"});
  for (double n : sizes) {
    const int ni = static_cast<int>(n);
    const double at = measure(config, kind, ni, activities, false);
    const double ht = measure(config, kind, ni, activities, true);
    atomic_times.push_back(at);
    htm_times.push_back(ht);
    table.row().cell(config.name).cell(bench::machine_atomic_name(config))
        .cell(std::uint64_t(ni)).cell(at, 1).cell(at / n, 2);
    table.row().cell(config.name).cell(model::to_string(kind))
        .cell(std::uint64_t(ni)).cell(ht, 1).cell(ht / n, 2);
  }
  table.print("Measured activity times (" + config.name + ")");
  io.maybe_write_csv(table, config.name);

  const auto v = model::validate_model(config, kind, sizes, atomic_times,
                                       htm_times, /*use_cas=*/true);
  util::Table fit({"quantity", "atomics", std::string("HTM (") +
                                              model::to_string(kind) + ")"});
  fit.row().cell("slope A [ns/vertex]").cell(v.atomic_fit.slope, 2)
      .cell(v.htm_fit.slope, 2);
  fit.row().cell("intercept B [ns]").cell(v.atomic_fit.intercept, 2)
      .cell(v.htm_fit.intercept, 2);
  fit.row().cell("R^2").cell(v.atomic_fit.r2, 5).cell(v.htm_fit.r2, 5);
  fit.print("Linear model fit, t(N) = A*N + B");
  std::printf("crossover N*: measured %.1f, predicted-from-cost-tables %.1f\n",
              v.measured_crossover, v.predicted_crossover);
  std::printf("paper shape check: B_HTM > B_AT: %s;  A_HTM < A_AT: %s\n",
              v.htm_fit.intercept > v.atomic_fit.intercept ? "YES" : "NO",
              v.htm_fit.slope < v.atomic_fit.slope ? "YES" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  aam::bench::BenchIo io;
  io.cli = &cli;
  io.csv_path = cli.get_string("csv", "");
  const int activities = static_cast<int>(cli.get_int("activities", 2000));
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
  cli.check_unknown();

  aam::bench::print_header(
      "Figure 2 — performance model validation (§5.3)",
      "Single-thread activities over N vertices: N atomics vs one "
      "transaction; linear fit and crossover.");

  run_machine(model::has_c(), model::HtmKind::kRtm, io, activities);
  run_machine(model::bgq(), model::HtmKind::kBgqLong, io, activities);
  return 0;
}
