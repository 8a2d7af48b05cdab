// Golden simulated-time snapshot (extends tools/determinism_check.sh into
// ctest): a small algorithm x mechanism x machine sweep whose simulated
// times, abort/commit counters, and result digests must stay bit-identical
// across host-side refactors. Any host-only optimization (batch dispatch,
// footprint memoization, heap layout changes in the event queue) must
// leave every line of this snapshot untouched.
//
// Regenerate deliberately with:
//   AAM_UPDATE_GOLDEN=1 ./build/tests/golden_test
// and commit the diff together with an explanation of the modelled-behavior
// change that motivated it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/executor.hpp"
#include "sim/host_pool.hpp"

namespace aam {
namespace {

std::string snapshot_lines() {
  algorithms::Inputs in = algorithms::make_inputs({});
  in.coloring_seed = 7;
  struct Setup {
    const model::MachineConfig* config;
    model::HtmKind kind;
    int threads;
  };
  const std::vector<Setup> setups = {
      {&model::bgq(), model::HtmKind::kBgqShort, 16},
      {&model::has_c(), model::HtmKind::kRtm, 8},
  };
  // Each (setup, algorithm, mechanism) cell simulates on a machine of its
  // own, so the sweep runs as shards on the parallel DES backend: cells
  // execute across sim::host_threads() host workers (AAM_HOST_THREADS
  // sweeps it without a rebuild), each line lands in its cell's slot, and
  // the snapshot is assembled in cell order. The whole point of the
  // snapshot applies to the backend itself: every line must be
  // bit-identical at every host-thread count.
  struct Cell {
    const Setup* setup;
    const algorithms::AlgorithmEntry* algo;
    core::Mechanism mech;
  };
  std::vector<Cell> cells;
  for (const Setup& setup : setups) {
    for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
      for (const core::Mechanism mech : core::all_mechanisms()) {
        cells.push_back({&setup, &algo, mech});
      }
    }
  }
  std::vector<std::string> lines(cells.size());
  sim::ShardRunner(0).run(cells.size(), [&](sim::ShardId cell_id) {
    const Cell& cell = cells[cell_id];
    mem::SimHeap heap;
    htm::DesMachine machine(*cell.setup->config, cell.setup->kind,
                            cell.setup->threads, heap, /*seed=*/1);
    machine.bind_shard(cell_id);
    core::ExecConfig exec = cell.algo->exec;
    exec.mechanism = cell.mech;
    const algorithms::RunReport rec = cell.algo->run(machine, in, exec);
  char line[256];
    // %a renders the simulated time exactly; any bit flip shows up.
    std::snprintf(line, sizeof(line),
                  "%s %s %s time=%a commits=%llu serialized=%llu "
                  "aborts_conflict=%llu aborts_capacity=%llu "
                  "aborts_other=%llu cas=%llu acc=%llu digest=%016llx\n",
                  cell.setup->config->name.c_str(), cell.algo->name,
                  core::to_string(cell.mech), rec.sim_ns,
                  static_cast<unsigned long long>(rec.stats.committed),
                  static_cast<unsigned long long>(rec.stats.serialized),
                  static_cast<unsigned long long>(rec.stats.aborts_conflict),
                  static_cast<unsigned long long>(rec.stats.aborts_capacity),
                  static_cast<unsigned long long>(rec.stats.aborts_other),
                  static_cast<unsigned long long>(rec.stats.atomic_cas),
                  static_cast<unsigned long long>(rec.stats.atomic_acc),
                  static_cast<unsigned long long>(rec.digest));
    lines[cell_id] = line;
  });
  std::ostringstream out;
  for (const std::string& line : lines) out << line;
  return out.str();
}

TEST(GoldenSnapshot, SimulatedSweepBitIdentical) {
  const std::string actual = snapshot_lines();
  const std::string path = AAM_GOLDEN_SNAPSHOT;
  if (const char* update = std::getenv("AAM_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden snapshot regenerated at " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good())
      << "missing golden snapshot " << path
      << " — regenerate with AAM_UPDATE_GOLDEN=1 ./golden_test";
  std::stringstream expected;
  expected << f.rdbuf();
  // Line-by-line compare for readable failures.
  std::istringstream want(expected.str()), got(actual);
  std::string wline, gline;
  int lineno = 0;
  while (std::getline(want, wline)) {
    ++lineno;
    ASSERT_TRUE(std::getline(got, gline))
        << "snapshot truncated at line " << lineno << "; expected: " << wline;
    EXPECT_EQ(wline, gline) << "snapshot mismatch at line " << lineno;
  }
  EXPECT_FALSE(std::getline(got, gline))
      << "snapshot has extra lines, first: " << gline;
}

}  // namespace
}  // namespace aam
