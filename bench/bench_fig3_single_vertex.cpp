// Figure 3 + Tables 3c/3f (§5.4): single-vertex intra-node activities.
//
// Activity 1 — "marking a vertex as visited" (the BFS/SSSP primitive):
//   each of T threads marks ONE shared vertex `ops` times, with an atomic
//   CAS or the equivalent transaction. ops=10 models the low-contention /
//   sparse-graph case (Fig 3a), ops=100 the dense one (Fig 3b).
// Activity 2 — "incrementing a vertex' rank" (the PageRank primitive):
//   same shape with ACC / a read-add-write transaction (Fig 3d/3e).
//
// Reported per (machine, mechanism, T): mean total time over repetitions
// and the abort breakdown (memory conflicts / buffer overflows / other),
// reproducing the Tables 3c and 3f rows at T=8 (Haswell) and T=64 (BGQ).
//
// Paper shapes to observe: atomics win for single-vertex activities; the
// HTM variant of ACC aborts far more than the HTM variant of CAS (a marked
// vertex is only *read* by later transactions; a rank is written by every
// one); HLE collapses under contention (serialize-after-first-abort);
// BG/Q HTM degrades steeply with T because its aborts are expensive.

#include <memory>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace aam;

enum class Mechanism { kAtomic, kHtm };
enum class Activity { kMarkVisited, kIncrementRank };

const char* activity_name(Activity a) {
  return a == Activity::kMarkVisited ? "mark-visited" : "increment-rank";
}

class SingleVertexWorker : public htm::Worker {
 public:
  // `unconditional_store` selects the naive HTM translation of the mark
  // (store 1 regardless of the current value), which conflicts on every
  // overlap. The default checks first, like the optimized Graph500 codes;
  // pass --naive-mark to explore the write-always variant.
  SingleVertexWorker(Activity activity, Mechanism mechanism,
                     bool unconditional_store)
      : activity_(activity), mechanism_(mechanism),
        unconditional_store_(unconditional_store) {}

  void start_rep(std::uint64_t* visited, double* rank, int ops) {
    visited_ = visited;
    rank_ = rank;
    left_ = ops;
  }

  bool next(htm::ThreadCtx& ctx) override {
    if (left_ == 0) return false;
    --left_;
    if (mechanism_ == Mechanism::kAtomic) {
      if (activity_ == Activity::kMarkVisited) {
        ctx.cas(*visited_, std::uint64_t{0}, std::uint64_t{1});
      } else {
        ctx.fetch_add(*rank_, 0.125);
      }
      return true;
    }
    if (activity_ == Activity::kMarkVisited) {
      if (unconditional_store_) {
        ctx.stage_transaction([v = visited_](htm::Txn& tx) {
          tx.store(*v, std::uint64_t{1});
        });
      } else {
        ctx.stage_transaction([v = visited_](htm::Txn& tx) {
          if (tx.load(*v) == 0) tx.store(*v, std::uint64_t{1});
        });
      }
    } else {
      ctx.stage_transaction([r = rank_](htm::Txn& tx) {
        tx.fetch_add(*r, 0.125);
      });
    }
    return true;
  }

 private:
  Activity activity_;
  Mechanism mechanism_;
  bool unconditional_store_ = false;
  std::uint64_t* visited_ = nullptr;
  double* rank_ = nullptr;
  int left_ = 0;
};

struct Measurement {
  double mean_total_ns = 0;
  htm::HtmStats stats;
};

bool g_naive_mark = false;  // --naive-mark: HTM mark stores unconditionally

Measurement measure(const model::MachineConfig& config, model::HtmKind kind,
                    Mechanism mechanism, Activity activity, int threads,
                    int ops, int reps) {
  mem::SimHeap heap;
  htm::DesMachine machine(config, kind, threads, heap);
  // One shared vertex per repetition, each on its own line.
  auto visited = heap.alloc<std::uint64_t>(static_cast<std::size_t>(reps) * 8);
  auto ranks = heap.alloc<double>(static_cast<std::size_t>(reps) * 8);

  std::vector<std::unique_ptr<SingleVertexWorker>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(std::make_unique<SingleVertexWorker>(
        activity, mechanism, g_naive_mark));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  int rep = 0;
  auto arm = [&] {
    for (auto& w : workers) {
      w->start_rep(&visited[static_cast<std::size_t>(rep) * 8],
                   &ranks[static_cast<std::size_t>(rep) * 8], ops);
    }
    ++rep;
  };
  arm();
  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    if (rep >= reps) return false;
    arm();
    m.barrier_release(0.0);
    return true;
  });
  machine.run();
  machine.set_quiescence_hook(nullptr);

  Measurement out;
  out.mean_total_ns = machine.makespan() / static_cast<double>(reps);
  out.stats = machine.stats();
  return out;
}

struct Variant {
  const model::MachineConfig* config;
  model::HtmKind kind;  // meaningful for kHtm only
  Mechanism mechanism;
  const char* label;
};

void run_activity(Activity activity, int ops, int reps,
                  aam::bench::BenchIo& io) {
  const std::vector<Variant> variants = {
      {&model::has_c(), model::HtmKind::kRtm, Mechanism::kAtomic,
       activity == Activity::kMarkVisited ? "Has-CAS" : "Has-ACC"},
      {&model::has_c(), model::HtmKind::kRtm, Mechanism::kHtm, "Has-RTM"},
      {&model::has_c(), model::HtmKind::kHle, Mechanism::kHtm, "Has-HLE"},
      {&model::bgq(), model::HtmKind::kBgqShort, Mechanism::kAtomic,
       activity == Activity::kMarkVisited ? "BGQ-CAS" : "BGQ-ACC"},
      {&model::bgq(), model::HtmKind::kBgqShort, Mechanism::kHtm,
       "BGQ-HTM-S"},
      {&model::bgq(), model::HtmKind::kBgqLong, Mechanism::kHtm,
       "BGQ-HTM-L"},
  };

  char caption[128];
  std::snprintf(caption, sizeof caption,
                "%s, %d ops/thread (Fig 3%s)", activity_name(activity), ops,
                activity == Activity::kMarkVisited
                    ? (ops <= 10 ? "a" : "b")
                    : (ops <= 10 ? "d" : "e"));

  util::Table table({"mechanism", "T", "total time", "aborts", "serialized"});
  std::vector<std::pair<std::string, htm::HtmStats>> breakdown_rows;
  for (const Variant& v : variants) {
    for (int threads : {1, 2, 4, 8, 16, 32, 64}) {
      if (threads > v.config->max_threads()) continue;
      if (v.config->name != "BGQ" && threads > 8) continue;
      const Measurement m =
          measure(*v.config, v.kind, v.mechanism, activity, threads, ops,
                  reps);
      table.row().cell(v.label).cell(threads)
          .cell(util::format_time_ns(m.mean_total_ns))
          .cell(m.stats.total_aborts())
          .cell(m.stats.serialized);
      const bool table3_row =
          v.mechanism == Mechanism::kHtm &&
          ((v.config->name == "BGQ" && threads == 64) ||
           (v.config->name == "Has-C" && threads == 8 &&
            v.kind == model::HtmKind::kRtm));
      if (table3_row) breakdown_rows.emplace_back(v.label, m.stats);
    }
  }
  table.print(caption);
  io.maybe_write_csv(table, std::string(activity_name(activity)) + "_" +
                                std::to_string(ops));

  util::Table bd({"mechanism", "memory conflicts", "buffer overflows",
                  "other reasons"});
  for (const auto& [label, stats] : breakdown_rows) {
    bd.row().cell(label).cell(stats.aborts_conflict)
        .cell(stats.aborts_capacity).cell(stats.aborts_other);
  }
  bd.print(std::string("Abort breakdown (Table 3") +
           (activity == Activity::kMarkVisited ? "c" : "f") +
           "), T=8 (Has) / T=64 (BGQ), summed over reps");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  aam::bench::BenchIo io;
  io.cli = &cli;
  io.csv_path = cli.get_string("csv", "");
  const int reps = static_cast<int>(cli.get_int("reps", 200));
  g_naive_mark = cli.get_bool("naive-mark", false);
  const int host_threads = bench::get_host_threads(cli);
  (void)host_threads;
  cli.check_unknown();

  aam::bench::print_header(
      "Figure 3 + Tables 3c/3f — single-vertex activities (§5.4)",
      "All threads hammer one shared vertex; atomics vs HTM variants.");

  for (int ops : {10, 100}) {
    run_activity(Activity::kMarkVisited, ops, reps, io);
  }
  for (int ops : {10, 100}) {
    run_activity(Activity::kIncrementRank, ops, reps, io);
  }
  return 0;
}
