// --mechanism=auto executor coverage: selection parsing (including the
// exit-2 flag diagnostic), the descent ladder, bit-identity of a pinned
// policy against the equivalent fixed run, telemetry for prediction misses
// and capacity clamps, and the check-layer capacity-guard audit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "check/check.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "graph/generators.hpp"
#include "htm/des_engine.hpp"
#include "mem/sim_heap.hpp"
#include "util/cli.hpp"

namespace aam {
namespace {

TEST(DescendMechanism, LadderIsHtmStmSerial) {
  using core::Mechanism;
  EXPECT_EQ(core::descend_mechanism(Mechanism::kHtmCoarsened),
            Mechanism::kStm);
  EXPECT_EQ(core::descend_mechanism(Mechanism::kStm),
            Mechanism::kSerialLock);
  // Non-speculative rungs are terminal.
  EXPECT_EQ(core::descend_mechanism(Mechanism::kSerialLock),
            Mechanism::kSerialLock);
  EXPECT_EQ(core::descend_mechanism(Mechanism::kAtomicOps),
            Mechanism::kAtomicOps);
  EXPECT_EQ(core::descend_mechanism(Mechanism::kFineLocks),
            Mechanism::kFineLocks);
}

TEST(MechanismSelection, ParsesFixedNamesAndAuto) {
  const auto fixed = core::parse_mechanism_selection("htm");
  ASSERT_TRUE(fixed.has_value());
  ASSERT_FALSE(fixed->is_auto());
  EXPECT_EQ(*fixed->fixed, core::Mechanism::kHtmCoarsened);

  const auto aut = core::parse_mechanism_selection("auto");
  ASSERT_TRUE(aut.has_value());
  EXPECT_TRUE(aut->is_auto());

  EXPECT_FALSE(core::parse_mechanism_selection("bogus").has_value());
  EXPECT_FALSE(core::parse_mechanism_selection("").has_value());
}

TEST(MechanismSelection, ErrorDiagnosticNamesFlagValueAndChoices) {
  const std::string msg = core::mechanism_selection_error("mechanism", "nope");
  EXPECT_NE(msg.find("--mechanism=nope"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown mechanism"), std::string::npos) << msg;
  EXPECT_NE(msg.find("auto"), std::string::npos) << msg;
  EXPECT_NE(msg.find("serial-lock"), std::string::npos) << msg;
  // One line, matching the --fault / --check flag-error convention.
  EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
}

TEST(MechanismSelectionDeathTest, MalformedFlagExitsTwo) {
  const char* argv[] = {"prog", "--mechanism=bogus"};
  util::Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(core::mechanism_selection_flag(cli, "mechanism", "htm"),
              ::testing::ExitedWithCode(2), "unknown mechanism");
}

// ---------------------------------------------------------------------------
// Routing behavior on a real workload: PageRank on a small Kronecker graph.

graph::Graph make_graph() {
  util::Rng rng(1);
  graph::KroneckerParams params;
  params.scale = 9;
  params.edge_factor = 4;
  return graph::kronecker(params, rng);
}

algorithms::PageRankResult run_pagerank(
    const graph::Graph& g, core::Mechanism mech,
    const core::AutoPolicy* policy, core::BatchRecorder* recorder) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort, 16, heap,
                          /*seed=*/1);
  algorithms::PageRankOptions o;
  o.iterations = 3;
  o.mechanism = mech;
  o.auto_policy = policy;
  o.recorder = recorder;
  return algorithms::run_pagerank(machine, g, o);
}

core::AutoPolicy uniform_policy(core::Mechanism mech) {
  core::AutoPolicy policy;
  for (auto& plan : policy.plans) plan.recommended = mech;
  return policy;
}

TEST(AutoExecutor, PinnedPolicyReproducesFixedRunBitForBit) {
  const graph::Graph g = make_graph();
  const auto fixed =
      run_pagerank(g, core::Mechanism::kSerialLock, nullptr, nullptr);
  const core::AutoPolicy policy = uniform_policy(core::Mechanism::kSerialLock);
  const auto routed =
      run_pagerank(g, core::Mechanism::kHtmCoarsened, &policy, nullptr);
  // Routing is host-side only: a policy that always resolves to one
  // mechanism charges exactly that fixed run's simulated costs.
  EXPECT_EQ(routed.total_time_ns, fixed.total_time_ns);
  EXPECT_EQ(routed.stats.committed, fixed.stats.committed);
  EXPECT_EQ(routed.stats.atomic_cas, fixed.stats.atomic_cas);
  ASSERT_EQ(routed.rank.size(), fixed.rank.size());
  EXPECT_EQ(routed.rank, fixed.rank);
  EXPECT_GT(policy.telemetry.batches, 0u);
  EXPECT_EQ(policy.telemetry.descents, 0u);
  EXPECT_EQ(policy.telemetry.prediction_miss, 0u);
  EXPECT_EQ(policy.telemetry.capacity_clamps, 0u);
}

TEST(AutoExecutor, AbortBandMissDescendsTheLadder) {
  const graph::Graph g = make_graph();
  // Plan HTM for the push operator with a zero-tolerance abort band: the
  // first validation window containing any abort is a prediction miss.
  core::AutoPolicy policy = uniform_policy(core::Mechanism::kSerialLock);
  policy.plan(core::OperatorId::kPagerankPush).recommended =
      core::Mechanism::kHtmCoarsened;
  policy.plan(core::OperatorId::kPagerankPush).abort_band = 0.0;
  const auto routed =
      run_pagerank(g, core::Mechanism::kHtmCoarsened, &policy, nullptr);
  ASSERT_FALSE(routed.rank.empty());
  // PageRank pushes on BG/Q at 16 threads abort constantly; the run must
  // observe at least one miss and descend at least one rung.
  EXPECT_GE(policy.telemetry.prediction_miss, 1u);
  EXPECT_GE(policy.telemetry.descents, 1u);
  EXPECT_EQ(policy.telemetry.capacity_clamps, 0u);
}

TEST(AutoExecutor, CapacityClampReroutesOversizedBatches) {
  const graph::Graph g = make_graph();
  // c_safe = 1 with the default batch of 16: every push batch statically
  // exceeds the bound, so the executor reroutes it without ever starting a
  // transaction (no outcomes -> no descents).
  core::AutoPolicy policy = uniform_policy(core::Mechanism::kSerialLock);
  policy.plan(core::OperatorId::kPagerankPush).recommended =
      core::Mechanism::kHtmCoarsened;
  policy.plan(core::OperatorId::kPagerankPush).htm_c_safe = 1;
  const auto routed =
      run_pagerank(g, core::Mechanism::kHtmCoarsened, &policy, nullptr);
  ASSERT_FALSE(routed.rank.empty());
  EXPECT_GT(policy.telemetry.capacity_clamps, 0u);
  EXPECT_EQ(policy.telemetry.descents, 0u);
  EXPECT_EQ(routed.stats.committed, 0u) << "a clamped batch still ran HTM";
}

// ---------------------------------------------------------------------------
// Check-layer audit: a fixed HTM run past the static c_safe bound trips
// kCapacityGuard; the auto executor with the same policy clamps instead.

TEST(CapacityGuard, FixedHtmPastBoundTripsAudit) {
  const graph::Graph g = make_graph();
  core::AutoPolicy policy;
  policy.plan(core::OperatorId::kPagerankPush).htm_c_safe = 1;

  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort, 16, heap,
                          /*seed=*/1);
  check::CheckConfig cfg;
  cfg.footprint = true;
  check::Checker checker(machine, cfg);
  checker.set_capacity_policy(&policy);
  algorithms::PageRankOptions o;
  o.iterations = 3;
  o.mechanism = core::Mechanism::kHtmCoarsened;
  o.recorder = &checker;
  algorithms::run_pagerank(machine, g, o);

  EXPECT_FALSE(checker.passed());
  bool saw_guard = false;
  for (const auto& v : checker.violations()) {
    if (v.kind == check::Violation::Kind::kCapacityGuard) saw_guard = true;
  }
  EXPECT_TRUE(saw_guard) << "no kCapacityGuard violation recorded";
}

TEST(CapacityGuard, AutoClampsAndStaysClean) {
  const graph::Graph g = make_graph();
  core::AutoPolicy policy = uniform_policy(core::Mechanism::kSerialLock);
  policy.plan(core::OperatorId::kPagerankPush).recommended =
      core::Mechanism::kHtmCoarsened;
  policy.plan(core::OperatorId::kPagerankPush).htm_c_safe = 1;

  mem::SimHeap heap;
  htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort, 16, heap,
                          /*seed=*/1);
  check::CheckConfig cfg;
  cfg.footprint = true;
  check::Checker checker(machine, cfg);
  checker.set_capacity_policy(&policy);
  algorithms::PageRankOptions o;
  o.iterations = 3;
  o.mechanism = core::Mechanism::kHtmCoarsened;
  o.auto_policy = &policy;
  o.recorder = &checker;
  algorithms::run_pagerank(machine, g, o);

  // Auto never lets an oversized batch reach HTM, so the audit that
  // condemns the fixed run above has nothing to flag here.
  EXPECT_TRUE(checker.passed()) << "auto run tripped the capacity guard";
  EXPECT_GT(policy.telemetry.capacity_clamps, 0u);
}

}  // namespace
}  // namespace aam
