// The algorithm registry: entry identity, and cross-mechanism answer
// equality. The fault matrix compares each mechanism only with its own
// fault-free run; here every entry's schedule-invariant Projection under
// every fixed mechanism and under auto dispatch must match its
// serial-lock projection (the §4.1 coarse-lock reference), within the
// tolerances of algorithms::compare.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algorithms/registry.hpp"
#include "analysis/capacity.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "analysis/signature.hpp"
#include "core/auto_executor.hpp"

namespace aam {
namespace {

TEST(Registry, NamesAndOperatorIdsAreUniqueAndRecommended) {
  const auto sigs = analysis::analyze_all();
  const auto w = analysis::workload_for_scale(10, 4, /*threads=*/16,
                                              /*batch=*/16);
  const auto bounds = analysis::capacity_bounds(
      sigs, static_cast<int>(w.mean_degree + 0.5), w.chain);
  const auto recs = analysis::recommend_for(
      model::bgq(), model::HtmKind::kBgqShort, sigs, bounds, w);
  std::set<std::string> names;
  std::set<core::OperatorId> ops;
  for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
    EXPECT_TRUE(names.insert(algo.name).second)
        << "duplicate registry name " << algo.name;
    EXPECT_TRUE(ops.insert(algo.op).second)
        << algo.name << ": duplicate " << core::to_string(algo.op);
    EXPECT_NE(algo.op, core::OperatorId::kUnknown) << algo.name;
    bool recommended = false;
    for (const analysis::Recommendation& rec : recs) {
      recommended = recommended || rec.op == algo.op;
    }
    EXPECT_TRUE(recommended) << algo.name << ": no recommendation row for "
                             << core::to_string(algo.op);
  }
  EXPECT_EQ(names.size(), 6u);
}

struct MachineSetup {
  const model::MachineConfig* config;
  model::HtmKind kind;
  int threads;
};

class CrossMechanismTest : public ::testing::TestWithParam<MachineSetup> {};

TEST_P(CrossMechanismTest, EveryMechanismMatchesSerialLock) {
  const MachineSetup& setup = GetParam();
  algorithms::Inputs in = algorithms::make_inputs({});
  in.coloring_seed = 7;
  for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
    const core::AutoPolicy policy = analysis::make_auto_policy(
        *setup.config, setup.kind,
        analysis::workload_from_graph(algo.weighted ? in.wg : in.g,
                                      setup.threads, algo.exec.batch));
    const auto run = [&](core::Mechanism mech,
                         const core::AutoPolicy* auto_policy) {
      mem::SimHeap heap;
      htm::DesMachine machine(*setup.config, setup.kind, setup.threads, heap,
                              /*seed=*/1);
      core::ExecConfig exec = algo.exec;
      exec.mechanism = mech;
      exec.auto_policy = auto_policy;
      const algorithms::RunReport report = algo.run(machine, in, exec);
      EXPECT_TRUE(report.valid) << algo.name;
      return report.projection;
    };
    const algorithms::Projection reference =
        run(core::Mechanism::kSerialLock, nullptr);
    for (const core::Mechanism mech : core::all_mechanisms()) {
      EXPECT_EQ(algorithms::compare(reference, run(mech, nullptr)), "")
          << algo.name << " under " << core::to_string(mech);
    }
    // Auto routes per the policy; the mechanism argument is ignored.
    EXPECT_EQ(algorithms::compare(
                  reference, run(core::Mechanism::kSerialLock, &policy)),
              "")
        << algo.name << " under auto";
  }
}

INSTANTIATE_TEST_SUITE_P(
    GoldenMachines, CrossMechanismTest,
    ::testing::Values(
        MachineSetup{&model::bgq(), model::HtmKind::kBgqShort, 16},
        MachineSetup{&model::has_c(), model::HtmKind::kRtm, 8}),
    [](const auto& info) {
      std::string name = info.param.config->name;
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace aam
