// aam::check tests: the checkers stay silent on every (algorithm,
// mechanism, machine) combination the repo ships — and they catch the two
// canonical operator bugs the layer exists for: a raw write that bypasses
// the access surface (escaped write) and an operator whose committed
// outcome a serial re-execution cannot reproduce (serializability
// divergence).

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/boruvka.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/st_connectivity.hpp"
#include "check/check.hpp"
#include "core/auto_executor.hpp"
#include "core/runtime.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "graph/partition.hpp"
#include "net/cluster.hpp"
#include "recovery/manager.hpp"

namespace aam {
namespace {

using model::HtmKind;

check::CheckConfig all_checks() {
  return {.races = true, .serial = true, .footprint = true};
}

std::string report_of(const check::Checker& checker) {
  std::ostringstream out;
  checker.report(out);
  return out.str();
}

// ---------------------------------------------------------- config parsing

TEST(CheckConfig, ParseRecognizesEveryMode) {
  EXPECT_FALSE(check::parse_check("none")->enabled());
  EXPECT_TRUE(check::parse_check("races")->races);
  EXPECT_FALSE(check::parse_check("races")->serial);
  EXPECT_TRUE(check::parse_check("serial")->serial);
  EXPECT_TRUE(check::parse_check("footprint")->footprint);
  const auto all = check::parse_check("all");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->races && all->serial && all->footprint);
}

TEST(CheckConfig, ParseRejectsUnknownNames) {
  EXPECT_FALSE(check::parse_check("").has_value());
  EXPECT_FALSE(check::parse_check("race").has_value());
  EXPECT_FALSE(check::parse_check("ALL").has_value());
}

TEST(CheckConfig, ErrorNamesFlagValueAndEveryValidSpelling) {
  const std::string msg = check::check_error("check", "bogus");
  EXPECT_NE(msg.find("--check"), std::string::npos);
  EXPECT_NE(msg.find("bogus"), std::string::npos);
  for (const char* name : {"none", "races", "serial", "footprint", "all"}) {
    EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

// ------------------------------------------------------------- clean runs

TEST(Checker, CleanRunPassesAndSeesBatches) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(256, "data");
  check::Checker checker(machine, all_checks());
  core::AamRuntime rt(machine, {.batch = 8, .recorder = &checker});
  rt.for_each(256, [&](auto& access, std::uint64_t i) {
    access.fetch_add(data[i], std::uint64_t{1});
  });
  EXPECT_TRUE(checker.passed()) << report_of(checker);
  EXPECT_GT(checker.batches_checked(), 0u);
}

// Checks are host-side only: under every mechanism, and under auto
// routing, a checked run charges exactly the unchecked run's simulated
// time and counts, and routes every batch the same way. BFS exercises the
// recorded cas, PageRank the recorded load and fetch_add.
TEST(Checker, DoesNotPerturbSimulatedTime) {
  util::Rng rng(7);
  graph::KroneckerParams params;
  params.scale = 9;
  params.edge_factor = 4;
  const graph::Graph g = graph::kronecker(params, rng);
  // BFS visits start speculative with a zero abort band, so the auto run
  // descends the ladder mid-run; everything else runs under atomics.
  core::AutoPolicy auto_policy;
  auto_policy.plan(core::OperatorId::kBfsVisit).recommended =
      core::Mechanism::kHtmCoarsened;
  auto_policy.plan(core::OperatorId::kBfsVisit).abort_band = 0.0;

  struct Run {
    double bfs_ns = 0;
    double pagerank_ns = 0;
    htm::HtmStats bfs_stats;
    htm::HtmStats pagerank_stats;
    core::AutoTelemetry telemetry;
  };
  auto run = [&](std::optional<core::Mechanism> mechanism, bool with_checks) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap);
    check::Checker checker(machine,
                           with_checks ? all_checks() : check::CheckConfig{});
    const core::AutoPolicy policy = auto_policy;  // fresh telemetry
    core::ExecConfig exec;
    exec.batch = 8;
    exec.mechanism = mechanism.value_or(core::Mechanism::kHtmCoarsened);
    if (!mechanism.has_value()) exec.auto_policy = &policy;
    if (with_checks) exec.recorder = &checker;
    algorithms::BfsOptions bfs;
    static_cast<core::ExecConfig&>(bfs) = exec;
    bfs.root = graph::pick_nonisolated_vertex(g);
    algorithms::PageRankOptions pagerank;
    static_cast<core::ExecConfig&>(pagerank) = exec;
    pagerank.iterations = 2;
    const auto b = algorithms::run_bfs(machine, g, bfs);
    const auto p = algorithms::run_pagerank(machine, g, pagerank);
    EXPECT_TRUE(checker.passed()) << report_of(checker);
    return Run{b.total_time_ns, p.total_time_ns, b.stats, p.stats,
               policy.telemetry};
  };

  std::vector<std::optional<core::Mechanism>> inputs(
      core::all_mechanisms().begin(), core::all_mechanisms().end());
  inputs.push_back(std::nullopt);  // auto
  for (const std::optional<core::Mechanism> mechanism : inputs) {
    const char* name = mechanism ? core::to_string(*mechanism) : "auto";
    const Run plain = run(mechanism, false);
    const Run checked = run(mechanism, true);
    EXPECT_EQ(plain.bfs_ns, checked.bfs_ns) << name;
    EXPECT_EQ(plain.pagerank_ns, checked.pagerank_ns) << name;
    EXPECT_TRUE(plain.bfs_stats == checked.bfs_stats) << name;
    EXPECT_TRUE(plain.pagerank_stats == checked.pagerank_stats) << name;
    EXPECT_TRUE(plain.telemetry == checked.telemetry) << name;
    if (!mechanism.has_value()) {
      EXPECT_GT(plain.telemetry.batches, 0u);
      EXPECT_GT(plain.telemetry.descents, 0u);
    }
  }
}

// -------------------------------------------------------- buggy operators

// A write through a raw pointer, bypassing the access surface: no
// mechanism synchronizes it, no conflict stamp is bumped, no cost is
// charged. The escaped-write detector must flag it and name the owning
// allocation.
TEST(Checker, RacesCatchesEscapedRawWrite) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(64, "buggy.data");
  check::Checker checker(machine, {.races = true});
  core::AamRuntime rt(machine, {.batch = 4, .recorder = &checker});
  rt.for_each(64, [&](auto& access, std::uint64_t i) {
    if (i % 2 == 0) {
      access.store(data[i], std::uint64_t{1});  // modelled: fine
    } else {
      data[i] = 1;  // raw escape: must be flagged
    }
  });
  EXPECT_FALSE(checker.passed());
  ASSERT_FALSE(checker.violations().empty());
  const auto& v = checker.violations().front();
  EXPECT_EQ(v.kind, check::Violation::Kind::kEscapedWrite);
  EXPECT_NE(v.detail.find("buggy.data"), std::string::npos) << v.detail;
  EXPECT_NE(report_of(checker).find("escaped-write"), std::string::npos);
}

// A raw write made inside a run but outside every batch, after the round's
// last shadow scan, is reported by the scan the checker makes when the
// machine goes quiescent. Only the quiescence hook's own host writes are
// sanctioned, by the resynchronisation that follows the hook.
TEST(Checker, RacesCatchesRawWriteAfterTheRoundsLastScan) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 1, heap);
  auto data = heap.alloc<std::uint64_t>(2, "round.data");
  check::Checker checker(machine, {.races = true});
  class RoundWorker final : public htm::Worker {
   public:
    explicit RoundWorker(std::span<std::uint64_t> data) : data_(data) {}
    bool next(htm::ThreadCtx& ctx) override {
      if (rounds_++ == 0) {
        ctx.store(data_[1], std::uint64_t{5});  // modelled: fine
        data_[0] = 1;  // raw escape, and no batch scans after it
      }
      return false;
    }

   private:
    std::span<std::uint64_t> data_;
    int rounds_ = 0;
  };
  RoundWorker worker(data);
  machine.set_worker(0, &worker);
  int hooks = 0;
  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    if (hooks++ > 0) return false;
    data[1] = 7;  // a host write between rounds: sanctioned
    m.wake(0);
    return true;
  });
  machine.run();
  EXPECT_EQ(hooks, 2);
  ASSERT_EQ(checker.violations().size(), 1u) << report_of(checker);
  const auto& v = checker.violations().front();
  EXPECT_EQ(v.kind, check::Violation::Kind::kEscapedWrite);
  EXPECT_NE(v.detail.find("round.data"), std::string::npos) << v.detail;
  EXPECT_EQ(v.offset, heap.offset_of(data.data()));
}

// An operator that derives its stores from mutable host state outside the
// Access surface: the committed outcome depends on execution order and the
// serial re-execution cannot reproduce it.
TEST(Checker, SerialReplayCatchesNonReplayableOperator) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(64, "data");
  check::Checker checker(machine, {.serial = true});
  core::AamRuntime rt(machine, {.batch = 4, .recorder = &checker});
  std::uint64_t hidden_counter = 0;
  rt.for_each(64, [&](auto& access, std::uint64_t i) {
    access.store(data[i], ++hidden_counter);
  });
  EXPECT_FALSE(checker.passed());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().kind,
            check::Violation::Kind::kSerialDivergence);
}

// A batch mislabeled with an operator id whose static signature does not
// cover the touched allocation: the dynamic-vs-static audit must flag the
// escape and name both the offending label and the permitted set.
TEST(Checker, StaticSignatureAuditCatchesMislabeledBatch) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(64, "mystery.array");
  check::Checker checker(machine, {.footprint = true});
  core::AamRuntime rt(machine, {.batch = 4, .recorder = &checker});
  // Claims to be bfs_visit but writes an allocation bfs_visit's static
  // may-write set ({bfs.parent}) does not contain.
  rt.for_each(
      64,
      [&](auto& access, std::uint64_t i) {
        access.store(data[i], std::uint64_t{1});
      },
      core::OperatorId::kBfsVisit);
  EXPECT_FALSE(checker.passed());
  ASSERT_FALSE(checker.violations().empty());
  const auto& v = checker.violations().front();
  EXPECT_EQ(v.kind, check::Violation::Kind::kStaticEscape);
  EXPECT_NE(v.detail.find("mystery.array"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("bfs.parent"), std::string::npos) << v.detail;
  EXPECT_NE(report_of(checker).find("static-escape"), std::string::npos);
}

// Untagged batches (kUnknown) are exempt from the static audit — ad-hoc
// runtime workloads carry no signature to check against.
TEST(Checker, StaticSignatureAuditSkipsUntaggedBatches) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 4, heap);
  auto data = heap.alloc<std::uint64_t>(64, "adhoc.array");
  check::Checker checker(machine, {.footprint = true});
  core::AamRuntime rt(machine, {.batch = 4, .recorder = &checker});
  rt.for_each(64, [&](auto& access, std::uint64_t i) {
    access.store(data[i], std::uint64_t{1});
  });
  EXPECT_TRUE(checker.passed()) << report_of(checker);
}

// ------------------------------------------------------ digest regression

TEST(Checker, CommitDigestIsDeterministicAcrossRuns) {
  auto digest_of = [](std::uint64_t seed) {
    util::Rng rng(seed);
    graph::KroneckerParams params;
    params.scale = 9;
    params.edge_factor = 4;
    const graph::Graph g = graph::kronecker(params, rng);
    mem::SimHeap heap;
    htm::DesMachine machine(model::bgq(), HtmKind::kBgqShort, 16, heap, seed);
    check::Checker checker(machine, {.footprint = true});
    algorithms::BfsOptions options;
    options.root = graph::pick_nonisolated_vertex(g);
    options.batch = 16;
    options.recorder = &checker;
    algorithms::run_bfs(machine, g, options);
    EXPECT_TRUE(checker.passed()) << report_of(checker);
    EXPECT_GT(checker.batches_checked(), 0u);
    return checker.digest();
  };
  const std::uint64_t first = digest_of(3);
  EXPECT_EQ(first, digest_of(3));
  EXPECT_NE(first, digest_of(4));  // different input -> different history
}

// ------------------------------------- acceptance sweep: everything clean

graph::Vertex second_endpoint(const graph::Graph& g, graph::Vertex s) {
  for (graph::Vertex v = g.num_vertices(); v-- > 0;) {
    if (v != s && !g.neighbors(v).empty()) return v;
  }
  return s;
}

// Every §3.3 algorithm under every executor mechanism on both machine
// models, all three checkers on. Any races/serializability/footprint bug
// in an executor or operator formulation fails here with a full report.
TEST(Checker, AllAlgorithmsAllMechanismsBothMachinesPassAllChecks) {
  constexpr std::uint64_t kSeed = 1;
  util::Rng rng(kSeed);
  graph::KroneckerParams params;
  params.scale = 10;
  params.edge_factor = 4;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Vertex root = graph::pick_nonisolated_vertex(g);
  const graph::Vertex st_t = second_endpoint(g, root);

  util::Rng wrng(kSeed + 1);
  auto wedges = graph::erdos_renyi_edges(600, 0.02, wrng);
  const auto weights =
      graph::random_weights(wedges.size(), 1.0f, 100.0f, wrng);
  const graph::Graph wg =
      graph::Graph::from_weighted_edges(600, wedges, weights, true);

  struct Setup {
    const model::MachineConfig* config;
    HtmKind kind;
    int threads;
  };
  const Setup setups[] = {
      {&model::bgq(), HtmKind::kBgqShort, 16},
      {&model::has_c(), HtmKind::kRtm, 8},
  };

  for (const Setup& setup : setups) {
    for (const core::Mechanism mech : core::all_mechanisms()) {
      auto run_all = [&](htm::DesMachine& m, check::Checker& checker) {
        {
          algorithms::BfsOptions o;
          o.root = root;
          o.mechanism = mech;
          o.batch = 8;
          o.recorder = &checker;
          const auto r = algorithms::run_bfs(m, g, o);
          ASSERT_TRUE(algorithms::validate_bfs_tree(g, root, r.parent));
        }
        {
          algorithms::PageRankOptions o;
          o.iterations = 2;
          o.mechanism = mech;
          o.batch = 8;
          o.recorder = &checker;
          algorithms::run_pagerank(m, g, o);
        }
        {
          algorithms::ColoringOptions o;
          o.mechanism = mech;
          o.batch = 8;
          o.seed = kSeed;
          o.recorder = &checker;
          const auto r = algorithms::run_boman_coloring(m, g, o);
          ASSERT_TRUE(algorithms::validate_coloring(g, r.color));
        }
        {
          algorithms::StConnOptions o;
          o.s = root;
          o.t = st_t;
          o.mechanism = mech;
          o.batch = 8;
          o.recorder = &checker;
          algorithms::run_st_connectivity(m, g, o);
        }
        {
          algorithms::SsspOptions o;
          o.source = 0;
          o.mechanism = mech;
          o.batch = 8;
          o.recorder = &checker;
          algorithms::run_sssp(m, wg, o);
        }
        {
          algorithms::BoruvkaOptions o;
          o.mechanism = mech;
          o.batch = 8;
          o.recorder = &checker;
          algorithms::run_boruvka(m, wg, o);
        }
      };
      mem::SimHeap heap;
      htm::DesMachine machine(*setup.config, setup.kind, setup.threads, heap,
                              kSeed);
      check::Checker checker(machine, all_checks());
      run_all(machine, checker);
      EXPECT_TRUE(checker.passed())
          << setup.config->name << "/" << core::to_string(mech) << "\n"
          << report_of(checker);
      EXPECT_GT(checker.batches_checked(), 0u)
          << setup.config->name << "/" << core::to_string(mech);
    }
  }
}

// Distributed PageRank resets the next iteration's ranks with host writes
// from its quiescence hook, mid-run. A hook that injects work counts as
// the instant between runs, so those resets are sanctioned and a clean
// run reports nothing; a raw write planted inside a later iteration,
// after the hooks have resynchronised the shadow, is still caught.

// Overwrites the heap double at `offset` at the first event boundary at or
// after `at_ns`. The engine consults inject_crash at every event boundary,
// so the write lands mid-iteration without queueing an event of its own
// (a pending callback would hold off the quiescence hooks).
class PlantRawWrite final : public htm::FaultHook {
 public:
  PlantRawWrite(mem::SimHeap& heap, std::uint64_t offset, double at_ns)
      : heap_(heap), offset_(offset), at_ns_(at_ns) {}
  bool inject_other_abort(std::uint32_t, double, double, double&) override {
    return false;
  }
  double slowdown(std::uint32_t, double) override { return 1.0; }
  bool inject_crash(std::uint32_t, double now_ns) override {
    if (!planted_ && now_ns >= at_ns_) {
      const double escaped = -1.0;  // raw escape: must be flagged
      std::memcpy(heap_.addr_of(offset_), &escaped, sizeof escaped);
      planted_ = true;
    }
    return false;
  }

 private:
  mem::SimHeap& heap_;
  std::uint64_t offset_;
  double at_ns_;
  bool planted_ = false;
};

TEST(Checker, DistributedPagerankRacesSanctionHookWritesOnly) {
  util::Rng rng(3);
  const graph::Graph g = graph::erdos_renyi(512, 0.02, rng);
  const graph::Block1D part(g.num_vertices(), 4);
  algorithms::DistPrOptions o;
  o.iterations = 4;
  // Returns the checker's violations and the makespan; with
  // `plant_at_ns` >= 0 the first word of the first rank array is
  // overwritten raw at that virtual time.
  const auto run = [&](double plant_at_ns) {
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 4, heap, 1);
    check::Checker checker(cluster.machine(), {.races = true});
    // run_distributed_pagerank allocates its two rank arrays first; the
    // first one is only read during the third iteration.
    const std::uint64_t rank_offset =
        (heap.used_bytes() + alignof(double) - 1) & ~(alignof(double) - 1);
    PlantRawWrite plant(heap, rank_offset, plant_at_ns);
    if (plant_at_ns >= 0) cluster.machine().set_fault_hook(&plant);
    o.recorder = &checker;
    const auto r = algorithms::run_distributed_pagerank(cluster, g, part, o);
    EXPECT_GT(checker.batches_checked(), 0u);
    return std::pair(checker.violations(), r.total_time_ns);
  };

  const auto [clean, makespan] = run(-1);
  EXPECT_TRUE(clean.empty()) << clean.size() << " violations, first: "
                             << clean.front().detail;

  // The middle of the third of four iterations.
  const auto planted = run(makespan * 0.625).first;
  ASSERT_EQ(planted.size(), 1u);
  EXPECT_EQ(planted.front().kind, check::Violation::Kind::kEscapedWrite);
  EXPECT_NE(planted.front().detail.find("pagerank.rank"), std::string::npos)
      << planted.front().detail;
}

// A crash-stop restores a checkpoint over the heap. The checker resyncs
// its shadow to the restored bytes, so a clean crashed run reports
// nothing; and it audits the heap before the restore, so a raw write made
// just before the crash is still reported although the restore erases it.

// Crashes the machine once, at the first event boundary at or after
// `at_ns`; with `plant`, first overwrites the heap double at `offset`.
class PlantThenCrash final : public htm::FaultHook {
 public:
  PlantThenCrash(mem::SimHeap& heap, std::uint64_t offset, double at_ns,
                 bool plant)
      : heap_(heap), offset_(offset), at_ns_(at_ns), plant_(plant) {}
  bool inject_other_abort(std::uint32_t, double, double, double&) override {
    return false;
  }
  double slowdown(std::uint32_t, double) override { return 1.0; }
  bool inject_crash(std::uint32_t, double now_ns) override {
    if (fired_ || now_ns < at_ns_) return false;
    fired_ = true;
    if (plant_) {
      const double escaped = -1.0;  // raw escape: must be flagged
      std::memcpy(heap_.addr_of(offset_), &escaped, sizeof escaped);
    }
    return true;
  }

 private:
  mem::SimHeap& heap_;
  std::uint64_t offset_;
  double at_ns_;
  bool plant_;
  bool fired_ = false;
};

TEST(Checker, CrashRestoreResyncsTheShadowButReportsEarlierEscapes) {
  util::Rng rng(3);
  const graph::Graph g = graph::erdos_renyi(512, 0.02, rng);
  const graph::Block1D part(g.num_vertices(), 4);
  algorithms::DistPrOptions o;
  o.iterations = 4;
  double makespan = 0;
  {
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 4, heap, 1);
    makespan =
        algorithms::run_distributed_pagerank(cluster, g, part, o).total_time_ns;
  }
  const auto run = [&](bool plant) {
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 4, 4, heap, 1);
    check::Checker checker(cluster.machine(), {.races = true});
    // The first word of the first rank array (see the test above).
    const std::uint64_t rank_offset =
        (heap.used_bytes() + alignof(double) - 1) & ~(alignof(double) - 1);
    PlantThenCrash crash(heap, rank_offset, makespan * 0.625, plant);
    cluster.machine().set_fault_hook(&crash);
    std::optional<recovery::RecoveryManager> recovery;
    recovery.emplace(cluster, recovery::RecoveryOptions{1.0e4});
    o.recorder = &checker;
    algorithms::run_distributed_pagerank(cluster, g, part, o);
    EXPECT_EQ(recovery->stats().crashes, 1u);
    recovery.reset();
    cluster.machine().set_fault_hook(nullptr);
    return checker.violations();
  };

  const auto clean = run(false);
  EXPECT_TRUE(clean.empty()) << clean.size() << " violations, first: "
                             << clean.front().detail;

  const auto planted = run(true);
  ASSERT_EQ(planted.size(), 1u);
  EXPECT_EQ(planted.front().kind, check::Violation::Kind::kEscapedWrite);
  EXPECT_NE(planted.front().detail.find("pagerank.rank"), std::string::npos)
      << planted.front().detail;
}

}  // namespace
}  // namespace aam
