#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/bfs.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "net/cluster.hpp"

namespace aam::fault {
namespace {

using model::HtmKind;

// ----------------------------------------------------------------- parsing

TEST(FaultPlanParse, NoneAndEmptyAreInert) {
  const auto& profile = model::has_c().fault;
  FaultPlan plan;
  EXPECT_FALSE(try_parse("none", profile, plan).has_value());
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(try_parse("", profile, plan).has_value());
  EXPECT_FALSE(plan.any());
}

TEST(FaultPlanParse, ScenarioExpandsMachineProfile) {
  const auto& profile = model::has_c().fault;
  const FaultPlan plan = parse("abort-storm", profile);
  EXPECT_DOUBLE_EQ(plan.storm_rate_per_us, profile.storm_rate_per_us);
  EXPECT_DOUBLE_EQ(plan.storm_period_ns, profile.storm_period_ns);
  EXPECT_DOUBLE_EQ(plan.storm_duty, profile.storm_duty);
  EXPECT_TRUE(plan.storm_active());
  EXPECT_FALSE(plan.net_active());
  EXPECT_FALSE(plan.slowdown_active());
}

TEST(FaultPlanParse, OverridesComposeLeftToRight) {
  const auto& profile = model::bgq().fault;
  const FaultPlan plan =
      parse("lossy-net,net.drop=0.2,net.rto=4000", profile);
  EXPECT_DOUBLE_EQ(plan.net_drop, 0.2);
  EXPECT_DOUBLE_EQ(plan.net_rto_ns, 4000.0);
  // Untouched fields keep the scenario's (profile) values.
  EXPECT_DOUBLE_EQ(plan.net_duplicate, profile.net_duplicate);
  EXPECT_DOUBLE_EQ(plan.net_reorder, profile.net_reorder);
  // A later token overrides an earlier one.
  const FaultPlan plan2 = parse("net.drop=0.5,net.drop=0.01", profile);
  EXPECT_DOUBLE_EQ(plan2.net_drop, 0.01);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const auto& profile = model::has_c().fault;
  FaultPlan plan;
  auto err = try_parse("packet-storm", profile, plan);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown fault scenario"), std::string::npos);
  err = try_parse("net.dorp=0.5", profile, plan);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown fault key"), std::string::npos);
  err = try_parse("net.drop=lots", profile, plan);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("bad numeric value"), std::string::npos);
  err = try_parse("@/nonexistent/fault.spec", profile, plan);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cannot read"), std::string::npos);
}

TEST(FaultPlanParse, SpecFileStripsCommentsAndJoinsLines) {
  const std::string path = testing::TempDir() + "fault_spec.txt";
  {
    std::ofstream out(path);
    out << "# injected into CI via --fault=@" << path << "\n"
        << "abort-storm  # the canned scenario\n"
        << "storm.rate=2.5\n"
        << "\n"
        << "straggler\n";
  }
  const auto& profile = model::has_c().fault;
  const FaultPlan from_file = parse("@" + path, profile);
  const FaultPlan inline_spec =
      parse("abort-storm,storm.rate=2.5,straggler", profile);
  EXPECT_DOUBLE_EQ(from_file.storm_rate_per_us, 2.5);
  EXPECT_DOUBLE_EQ(from_file.storm_rate_per_us,
                   inline_spec.storm_rate_per_us);
  EXPECT_DOUBLE_EQ(from_file.straggler_fraction,
                   inline_spec.straggler_fraction);
  EXPECT_TRUE(from_file.slowdown_active());
}

TEST(FaultPlanParse, SpecFileErrorNamesFileAndLine) {
  const std::string path = testing::TempDir() + "fault_spec_bad.txt";
  {
    std::ofstream out(path);
    out << "# a comment line still counts\n"
        << "abort-storm\n"
        << "storm.rate=2.5, net.drop=lots  # bad value\n"
        << "straggler\n";
  }
  const auto& profile = model::has_c().fault;
  FaultPlan plan;
  const auto err = try_parse("@" + path, profile, plan);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->rfind(path + ":3: bad numeric value for fault key 'net.drop'",
                       0),
            0u)
      << *err;
  std::remove(path.c_str());
}

TEST(FaultPlanParse, EveryCannedScenarioParses) {
  for (const auto* config : {&model::bgq(), &model::has_c(), &model::has_p()}) {
    for (const std::string& name : canned_scenarios()) {
      FaultPlan plan;
      EXPECT_FALSE(try_parse(name, config->fault, plan).has_value())
          << config->name << " " << name;
      EXPECT_EQ(plan.any(), name != "none") << config->name << " " << name;
    }
  }
}

// ------------------------------------------------------- engine-side faults

// A worker that stages `count` transactions, each running `body`.
class RepeatTxnWorker : public htm::Worker {
 public:
  RepeatTxnWorker(int count, htm::TxnBody body, htm::TxnDone done = {})
      : remaining_(count), body_(std::move(body)), done_(std::move(done)) {}

  bool next(htm::ThreadCtx& ctx) override {
    if (remaining_ == 0) return false;
    --remaining_;
    ctx.stage_transaction(body_, done_);
    return true;
  }

 private:
  int remaining_;
  htm::TxnBody body_;
  htm::TxnDone done_;
};

/// Has-C with the model's own stochastic abort sources silenced, so every
/// observed kOther abort must come from the injector (exact accounting).
model::MachineConfig quiet_has_c() {
  model::MachineConfig cfg = model::has_c();
  auto& rtm = cfg.htm_costs_[static_cast<int>(HtmKind::kRtm)];
  rtm.other_abort_per_us = 0;
  rtm.smt_evict_per_line = 0;
  return cfg;
}

TEST(FaultInjector, AbortStormAccountingIsExactPerThread) {
  const model::MachineConfig cfg = quiet_has_c();
  const int threads = 4;
  mem::SimHeap heap;
  htm::DesMachine machine(cfg, HtmKind::kRtm, threads, heap, /*seed=*/3);
  auto counters = heap.alloc<std::uint64_t>(threads * 8);

  // Continuous storm, rate high enough that injections are plentiful.
  const FaultPlan plan =
      parse("abort-storm,storm.period=0,storm.rate=3", cfg.fault);
  FaultInjector injector(plan, /*seed=*/3, threads);
  injector.attach(machine);

  const int per_thread = 300;
  std::vector<std::unique_ptr<RepeatTxnWorker>> workers;
  for (int t = 0; t < threads; ++t) {
    auto* slot = &counters[static_cast<std::size_t>(t) * 8];
    workers.push_back(std::make_unique<RepeatTxnWorker>(
        per_thread, [slot](htm::Txn& tx) {
          tx.fetch_add(*slot, std::uint64_t{1});
        }));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }
  machine.run();

  // Correctness survives the storm.
  for (int t = 0; t < threads; ++t) {
    EXPECT_EQ(counters[static_cast<std::size_t>(t) * 8],
              static_cast<std::uint64_t>(per_thread));
  }
  // Exactness: injected == observed, in aggregate and per thread.
  const auto& injected = injector.injected();
  EXPECT_GT(injected.other_aborts, 0u);
  EXPECT_EQ(machine.stats().aborts_other, injected.other_aborts);
  std::uint64_t sum = 0;
  for (int t = 0; t < threads; ++t) {
    const auto tid = static_cast<std::uint32_t>(t);
    EXPECT_EQ(machine.thread_stats(tid).aborts_other,
              injected.other_aborts_by_thread[tid])
        << "thread " << t;
    sum += injected.other_aborts_by_thread[tid];
  }
  EXPECT_EQ(sum, injected.other_aborts);
}

TEST(FaultInjector, SameSeedSameScheduleBitIdentical) {
  util::Rng grng(9);
  graph::KroneckerParams params;
  params.scale = 8;
  params.edge_factor = 4;
  const graph::Graph g = graph::kronecker(params, grng);

  struct Run {
    double time_ns;
    htm::HtmStats stats;
    std::vector<graph::Vertex> parent;
    std::uint64_t injected;
  };
  auto run_once = [&] {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, 8, heap,
                            /*seed=*/5);
    const FaultPlan plan = parse("abort-storm,straggler",
                                 machine.config().fault);
    FaultInjector injector(plan, /*seed=*/5, machine.num_threads());
    injector.attach(machine);
    algorithms::BfsOptions o;
    o.root = graph::pick_nonisolated_vertex(g);
    const auto r = algorithms::run_bfs(machine, g, o);
    return Run{r.total_time_ns, r.stats, r.parent,
               injector.injected().other_aborts};
  };
  const Run a = run_once();
  const Run b = run_once();
  // Same seed + same plan => bit-identical simulated time, stats, faults,
  // and results.
  EXPECT_EQ(a.time_ns, b.time_ns);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_GT(a.injected, 0u);
  EXPECT_EQ(a.stats.aborts_other, b.stats.aborts_other);
  EXPECT_EQ(a.stats.committed, b.stats.committed);
  EXPECT_EQ(a.stats.serialized, b.stats.serialized);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(FaultInjector, StragglersSlowTheMakespan) {
  const int threads = 8;
  auto run_with = [&](const std::string& spec) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), HtmKind::kRtm, threads, heap);
    auto counters = heap.alloc<std::uint64_t>(threads * 8);
    const FaultPlan plan = parse(spec, machine.config().fault);
    FaultInjector injector(plan, /*seed=*/1, threads);
    injector.attach(machine);
    std::vector<std::unique_ptr<RepeatTxnWorker>> workers;
    for (int t = 0; t < threads; ++t) {
      auto* slot = &counters[static_cast<std::size_t>(t) * 8];
      workers.push_back(std::make_unique<RepeatTxnWorker>(
          200, [slot](htm::Txn& tx) {
            tx.fetch_add(*slot, std::uint64_t{1});
          }));
      machine.set_worker(static_cast<std::uint32_t>(t),
                         workers.back().get());
    }
    machine.run();
    return machine.makespan();
  };
  // Continuous windows (period=0) so the slowdown always applies.
  const double slow = run_with(
      "straggler,straggler.period=0,straggler.factor=8,"
      "straggler.fraction=0.5");
  const double fast = run_with("none");
  EXPECT_GT(slow, fast * 2);

  // The straggler subset is deterministic and has ceil(fraction*T) members.
  const FaultPlan plan = parse("straggler,straggler.fraction=0.5",
                               model::has_c().fault);
  FaultInjector injector(plan, /*seed=*/1, threads);
  int stragglers = 0;
  for (int t = 0; t < threads; ++t) {
    if (injector.is_straggler(static_cast<std::uint32_t>(t))) ++stragglers;
  }
  EXPECT_EQ(stragglers, 4);
}

// ------------------------------------------------------ network-side faults

class PollWorker : public htm::Worker {
 public:
  explicit PollWorker(net::Cluster& cluster) : cluster_(cluster) {}
  bool next(htm::ThreadCtx& ctx) override {
    return cluster_.poll_and_handle(ctx);
  }

 private:
  net::Cluster& cluster_;
};

class SendOnceWorker : public htm::Worker {
 public:
  SendOnceWorker(net::Cluster& cluster, std::function<void(htm::ThreadCtx&)> fn)
      : cluster_(cluster), fn_(std::move(fn)) {}
  bool next(htm::ThreadCtx& ctx) override {
    if (fn_) {
      auto fn = std::move(fn_);
      fn_ = nullptr;
      fn(ctx);
      return true;
    }
    return cluster_.poll_and_handle(ctx);
  }

 private:
  net::Cluster& cluster_;
  std::function<void(htm::ThreadCtx&)> fn_;
};

TEST(FaultInjector, LossyNetworkDeliversExactlyOnce) {
  mem::SimHeap heap;
  net::Cluster cluster(model::has_p(), HtmKind::kRtm, 2, 1, heap, /*seed=*/2);
  const FaultPlan plan = parse(
      "lossy-net,net.drop=0.3,net.dup=0.25,net.reorder=0.5",
      cluster.config().fault);
  FaultInjector injector(plan, /*seed=*/2, cluster.machine().num_threads(),
                         cluster.threads_per_node());
  injector.attach(cluster);

  const int n = 200;
  std::uint64_t delivered = 0;
  std::uint64_t arg_sum = 0;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx&, const net::Message& msg) {
        ++delivered;
        arg_sum += msg.arg0;
      });
  SendOnceWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
    for (int i = 0; i < n; ++i) {
      cluster.send(ctx, 1, h, static_cast<std::uint64_t>(i));
    }
  });
  PollWorker receiver(cluster);
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &receiver);
  cluster.machine().run();

  // Exactly-once delivery despite drops, duplicates, and reordering.
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(n));
  EXPECT_EQ(arg_sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
  EXPECT_EQ(cluster.in_flight(), 0u);

  // Exact accounting: the cluster observed precisely what was injected,
  // every logical send was eventually acknowledged, and the loss rate
  // forced real retransmissions and dedup discards.
  const auto& s = cluster.stats();
  const auto& injected = injector.injected();
  EXPECT_EQ(s.messages_sent, static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.dropped, injected.net_dropped);
  EXPECT_EQ(s.duplicated, injected.net_duplicated);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.retransmitted, 0u);
  EXPECT_GT(s.dedup_discarded, 0u);
  EXPECT_EQ(s.acked, s.messages_sent);
}

TEST(FaultInjector, NetFaultsAreSeedDeterministic) {
  auto run_once = [] {
    mem::SimHeap heap;
    net::Cluster cluster(model::bgq(), HtmKind::kBgqShort, 2, 1, heap,
                         /*seed=*/7);
    const FaultPlan plan = parse("lossy-net", cluster.config().fault);
    FaultInjector injector(plan, /*seed=*/7,
                           cluster.machine().num_threads(),
                           cluster.threads_per_node());
    injector.attach(cluster);
    std::uint64_t delivered = 0;
    const auto h = cluster.register_handler(
        [&](htm::ThreadCtx&, const net::Message&) { ++delivered; });
    SendOnceWorker sender(cluster, [&](htm::ThreadCtx& ctx) {
      for (int i = 0; i < 100; ++i) cluster.send(ctx, 1, h, 0);
    });
    PollWorker receiver(cluster);
    cluster.machine().set_worker(0, &sender);
    cluster.machine().set_worker(1, &receiver);
    cluster.machine().run();
    EXPECT_EQ(delivered, 100u);
    return std::tuple(cluster.machine().makespan(),
                      cluster.stats().dropped, cluster.stats().duplicated,
                      cluster.stats().retransmitted,
                      cluster.stats().dedup_discarded);
  };
  EXPECT_EQ(run_once(), run_once());
}

// -------------------------------------------------- hardening: self-healing

/// An injector-shaped hook that aborts every speculative attempt: the
/// worst-case storm, for exercising the livelock/watchdog ladders.
class AlwaysAbort final : public htm::FaultHook {
 public:
  bool inject_other_abort(std::uint32_t, double, double,
                          double& frac_out) override {
    frac_out = 0.5;
    return true;
  }
  double slowdown(std::uint32_t, double) override { return 1.0; }
};

/// Has-C/RTM with the per-activity retry cap effectively disabled, so only
/// the resilience layer can rescue a livelocked thread.
model::MachineConfig uncapped_has_c() {
  model::MachineConfig cfg = quiet_has_c();
  auto& rtm = cfg.htm_costs_[static_cast<int>(HtmKind::kRtm)];
  rtm.max_retries = 1 << 28;
  return cfg;
}

TEST(Resilience, WatchdogTurnsLivelockIntoStructuredDiagnostic) {
  // Negative test: retry cap disabled AND livelock escalation disabled —
  // the only remaining defense is the progress watchdog, which must turn
  // the endless abort loop into a diagnostic instead of hanging.
  const model::MachineConfig cfg = uncapped_has_c();
  mem::SimHeap heap;
  htm::DesMachine machine(cfg, HtmKind::kRtm, 1, heap);
  machine.set_resilience({.livelock_watermark = 0, .watchdog_ns = 1e5});
  AlwaysAbort storm;
  machine.set_fault_hook(&storm);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  RepeatTxnWorker w(1, [x](htm::Txn& tx) {
    tx.fetch_add(*x, std::uint64_t{1});
  });
  machine.set_worker(0, &w);
  try {
    machine.run();
    FAIL() << "watchdog did not fire";
  } catch (const htm::StallError& e) {
    EXPECT_EQ(e.diagnostic.inflight_txns, 1);
    EXPECT_EQ(e.diagnostic.worst_tid, 0u);
    EXPECT_GT(e.diagnostic.worst_streak, 0);
    EXPECT_GT(e.diagnostic.now_ns,
              e.diagnostic.last_progress_ns + 1e5 - 1);
    // The rendered form carries the numbers a bug report needs.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stall"), std::string::npos);
    EXPECT_NE(msg.find("consecutive aborts"), std::string::npos);
  }
}

TEST(Resilience, LivelockWatermarkEscalatesToIrrevocable) {
  // Positive test: same unbounded storm, but the livelock watermark is
  // armed — every activity must complete on the irrevocable path with an
  // `escalated` outcome (the AdaptiveBatch cooldown signal), and the run
  // must finish without tripping the watchdog.
  const model::MachineConfig cfg = uncapped_has_c();
  const int watermark = 6;
  mem::SimHeap heap;
  htm::DesMachine machine(cfg, HtmKind::kRtm, 1, heap);
  machine.set_resilience(
      {.livelock_watermark = watermark, .watchdog_ns = 1e9});
  AlwaysAbort storm;
  machine.set_fault_hook(&storm);
  auto* x = heap.alloc_one<std::uint64_t>(0);
  const int txns = 3;
  std::vector<htm::TxnOutcome> outcomes;
  RepeatTxnWorker w(
      txns, [x](htm::Txn& tx) { tx.fetch_add(*x, std::uint64_t{1}); },
      [&](htm::ThreadCtx&, const htm::TxnOutcome& o) {
        outcomes.push_back(o);
      });
  machine.set_worker(0, &w);
  machine.run();

  EXPECT_EQ(*x, static_cast<std::uint64_t>(txns));
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(txns));
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.serialized);
    EXPECT_TRUE(o.escalated);
    // The streak resets on every completion, so each activity pays
    // exactly `watermark` aborts before escalating.
    EXPECT_EQ(o.aborts, watermark);
  }
  const auto s = machine.stats();
  EXPECT_EQ(s.committed, 0u);
  EXPECT_EQ(s.serialized, static_cast<std::uint64_t>(txns));
  EXPECT_EQ(s.aborts_other, static_cast<std::uint64_t>(txns * watermark));
}

}  // namespace
}  // namespace aam::fault
