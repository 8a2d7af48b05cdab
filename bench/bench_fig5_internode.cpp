// Figure 5c-5h (§5.6): activities spawned on a remote node.
//
//  5c  BGQ: mark 2^13 vertices stored on another node — one-sided PAMI-style
//      remote CAS vs atomic active messages executing HTM at the target,
//      sweeping the coalescing factor C. Paper: uncoalesced AMs ~5x slower;
//      crossover at C=16.
//  5d  BGQ: N-1 processes mark vertices owned by process N — remote CAS vs
//      coalesced AAM (C fixed). Paper: AAM wins ~5-7x.
//  5e/5f  Same pair with ACC (rank increments, hot vertex pool): the HTM
//      implementation of ACC aborts heavily, but coalescing still yields
//      ~20% over PAMI atomics at the sweet spot.
//  5g/5h  The C sweep on Has-P (2 nodes, MPI-3-RMA-style remote atomics).
//      Paper: C=2 already beats remote atomics.

#include <memory>

#include "bench_common.hpp"
#include "core/distributed.hpp"

namespace {

using namespace aam;

// Spawns `count` operator invocations for vertices owned by `target_node`.
class Producer : public core::DistributedRuntime::Worker {
 public:
  Producer(core::DistributedRuntime& rt, std::uint64_t count, int target_node,
           std::uint64_t vertex_pool, util::Rng rng)
      : core::DistributedRuntime::Worker(rt), rt2_(rt), left_(count),
        target_(target_node), pool_(vertex_pool), rng_(rng) {}

  // Under --fault=crash-restart the count and the stream roll back with
  // the items they produced.
  void durable(util::BlobIo& io) override {
    core::DistributedRuntime::Worker::durable(io);
    io(left_, rng_);
  }

 protected:
  bool produce(htm::ThreadCtx& ctx) override {
    if (left_ == 0) return false;
    // A small burst per work unit keeps interleaving fine-grained.
    for (int burst = 0; burst < 8 && left_ > 0; ++burst) {
      --left_;
      rt2_.spawn(ctx, target_, rng_.next_below(pool_));
    }
    return true;
  }

 private:
  core::DistributedRuntime& rt2_;
  std::uint64_t left_;
  int target_;
  std::uint64_t pool_;
  util::Rng rng_;
};

struct Setup {
  const model::MachineConfig* config;
  model::HtmKind kind;
  /// Threads per node. The paper's C-sweep microbenchmark (5c/e/g/h) uses
  /// a single process pair, so one thread handles the incoming AMs; the
  /// node-scaling variants (5d/f) drive a fully-threaded target node.
  int recv_threads;
};

// HTM-over-AM run: `senders` nodes each spawn `ops` operator invocations
// for vertices on the last node; handler batches run as one transaction.
double run_htm_am(const Setup& setup, int num_nodes, int coalesce,
                  std::uint64_t ops, bool use_acc, std::uint64_t pool_size,
                  std::uint64_t seed, const bench::RunFlags& flags) {
  bench::Cell cell(
      {*setup.config, setup.kind, setup.recv_threads, seed, num_nodes}, flags);
  net::Cluster& cluster = cell.cluster();
  // The remote vertex pool lives on the last node.
  auto visited = cell.heap().alloc<std::uint64_t>(pool_size * 8);
  core::DistributedRuntime rt(
      cluster, {.coalesce = coalesce,
                .exec = {.batch = coalesce, .recorder = cell.recorder()}});
  if (use_acc) {
    rt.set_operator([&](auto& access, std::uint64_t item) {
      access.fetch_add(visited[item * 8], std::uint64_t{1});
    });
  } else {
    rt.set_operator([&](auto& access, std::uint64_t item) {
      if (access.load(visited[item * 8]) == 0) {
        access.store(visited[item * 8], std::uint64_t{1});
      }
    });
  }

  const int target = num_nodes - 1;
  const util::Rng root(seed);
  std::vector<std::unique_ptr<htm::Worker>> workers;
  for (int node = 0; node < num_nodes; ++node) {
    for (int t = 0; t < setup.recv_threads; ++t) {
      if (node != target && t == 0) {
        workers.push_back(std::make_unique<Producer>(
            rt, ops, target, pool_size,
            root.fork(static_cast<std::uint64_t>(node) + 1)));
      } else {
        workers.push_back(
            std::make_unique<core::DistributedRuntime::Worker>(rt));
      }
      cluster.machine().set_worker(cluster.thread_of(node, t),
                                   workers.back().get());
    }
  }
  cluster.machine().run();
  AAM_CHECK(rt.drained());
  return cluster.machine().makespan();
}

// One-sided remote-atomics run (PAMI_Rmw / MPI-RMA style).
double run_remote_atomics(const Setup& setup, int num_nodes, std::uint64_t ops,
                          bool use_acc, std::uint64_t pool_size,
                          std::uint64_t seed) {
  bench::Cell cell(
      {*setup.config, setup.kind, setup.recv_threads, seed, num_nodes});
  net::Cluster& cluster = cell.cluster();
  auto visited = cell.heap().alloc<std::uint64_t>(pool_size * 8);
  net::RemoteAtomics rmw(cluster);

  class RmwProducer : public htm::Worker {
   public:
    RmwProducer(net::RemoteAtomics& rmw, std::span<std::uint64_t> pool,
                std::uint64_t ops, std::uint64_t pool_size, bool use_acc,
                util::Rng rng)
        : rmw_(rmw), pool_(pool), left_(ops), pool_size_(pool_size),
          use_acc_(use_acc), rng_(rng) {}
    bool next(htm::ThreadCtx& ctx) override {
      if (left_ == 0) return false;
      for (int burst = 0; burst < 8 && left_ > 0; ++burst) {
        --left_;
        auto& slot = pool_[rng_.next_below(pool_size_) * 8];
        if (use_acc_) {
          rmw_.acc_u64(ctx, slot, 1);
        } else {
          rmw_.cas_u64(ctx, slot, 0, 1);
        }
      }
      return true;
    }

   private:
    net::RemoteAtomics& rmw_;
    std::span<std::uint64_t> pool_;
    std::uint64_t left_;
    std::uint64_t pool_size_;
    bool use_acc_;
    util::Rng rng_;
  };

  const util::Rng root(seed);
  std::vector<std::unique_ptr<RmwProducer>> producers;
  for (int node = 0; node + 1 < num_nodes; ++node) {
    producers.push_back(std::make_unique<RmwProducer>(
        rmw, visited, ops, pool_size, use_acc,
        root.fork(static_cast<std::uint64_t>(node) + 1)));
    cluster.machine().set_worker(cluster.thread_of(node, 0),
                                 producers.back().get());
  }
  cluster.machine().run();
  return std::max(cluster.machine().makespan(), rmw.last_completion());
}

void sweep_coalescing(const Setup& setup, const char* figure, bool use_acc,
                      std::uint64_t ops, std::uint64_t pool, std::uint64_t seed,
                      const bench::RunFlags& flags, bench::BenchIo& io) {
  const double atomics_time =
      run_remote_atomics(setup, 2, ops, use_acc, pool, seed);
  util::Table table({"mechanism", "C", "time", "vs remote atomics"});
  table.row().cell(use_acc ? "remote ACC (one-sided)" : "remote CAS (one-sided)")
      .cell("-").cell(util::format_time_ns(atomics_time)).cell("1.00x");
  for (int c : {1, 2, 4, 8, 16, 32, 64}) {
    const double t =
        run_htm_am(setup, 2, c, ops, use_acc, pool, seed, flags);
    table.row().cell("Inter-node-HTM").cell(c).cell(util::format_time_ns(t))
        .cell(bench::speedup_str(atomics_time / t) + "x");
  }
  table.print(std::string("Fig ") + figure + " — " + setup.config->name +
              ", " + (use_acc ? "increment rank (ACC)" : "mark visited (CAS)") +
              ", " + util::format_count(ops) + " remote ops");
  io.maybe_write_csv(table, figure);
}

void sweep_nodes(const Setup& setup, const char* figure, bool use_acc,
                 std::uint64_t ops, int coalesce, std::uint64_t pool,
                 std::uint64_t seed, const bench::RunFlags& flags,
                 bench::BenchIo& io) {
  util::Table table({"N", "remote atomics", "Inter-node-HTM-C", "speedup"});
  for (int n : {2, 4, 8, 16}) {
    const double at = run_remote_atomics(setup, n, ops, use_acc, pool, seed);
    const double am =
        run_htm_am(setup, n, coalesce, ops, use_acc, pool, seed, flags);
    table.row().cell(n).cell(util::format_time_ns(at))
        .cell(util::format_time_ns(am))
        .cell(bench::speedup_str(at / am) + "x");
  }
  table.print(std::string("Fig ") + figure + " — " + setup.config->name +
              ": N-1 processes target process N (C=" +
              std::to_string(coalesce) + ")");
  io.maybe_write_csv(table, figure);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const auto ops = static_cast<std::uint64_t>(cli.get_int("ops", 8192));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bench::RunFlags flags{.check = check::check_flag(cli),
                              .fault = bench::get_fault_spec(cli)};
  cli.check_unknown();

  bench::print_header("Figure 5c-5h — inter-node activities (§5.6)",
                      "Atomic active messages + HTM at the target vs "
                      "one-sided remote atomics.");

  const Setup bgq_pair{&model::bgq(), model::HtmKind::kBgqShort, 1};
  const Setup bgq_acc{&model::bgq(), model::HtmKind::kBgqShort, 4};
  const Setup bgq_node{&model::bgq(), model::HtmKind::kBgqShort, 16};
  const Setup hasp_pair{&model::has_p(), model::HtmKind::kRtm, 1};

  // CAS family: distinct vertices -> negligible target-side conflicts.
  sweep_coalescing(bgq_pair, "5c", /*use_acc=*/false, ops, /*pool=*/ops,
                   seed, flags, io);
  sweep_nodes(bgq_node, "5d", false, ops, /*coalesce=*/16, ops, seed,
              flags, io);
  // ACC family: a hot pool of 64 vertices processed by several handler
  // threads -> the costly HTM ACC aborts of §5.4.2 appear at the target.
  sweep_coalescing(bgq_acc, "5e", /*use_acc=*/true, ops, /*pool=*/64, seed,
                   flags, io);
  sweep_nodes(bgq_node, "5f", true, ops, 16, 64, seed, flags, io);
  // Has-P over InfiniBand/MPI-RMA (2 nodes only, as on Greina).
  sweep_coalescing(hasp_pair, "5g", false, ops, ops, seed, flags, io);
  sweep_coalescing(hasp_pair, "5h", true, ops, 64, seed, flags, io);
  return 0;
}
