// Golden simulated-time snapshot (extends tools/determinism_check.sh into
// ctest): a small algorithm x mechanism x machine sweep, plus the runs the
// registry does not cover (distributed PageRank, the HAMA- and SNAP-like
// baselines, the ownership protocol, an adaptive-M PageRank), whose
// simulated times, abort/commit counters, and result digests must stay
// bit-identical across host-side refactors. Any host-only optimization (batch dispatch,
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
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/operators.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "algorithms/registry.hpp"
#include "baselines/bsp_engine.hpp"
#include "baselines/named.hpp"
#include "core/adaptive.hpp"
#include "core/executor.hpp"
#include "core/ownership.hpp"
#include "core/runtime.hpp"
#include "sim/host_pool.hpp"

namespace aam {
namespace {

/// FNV-1a over the bytes of every element, for the rows below whose runs
/// are not registry entries.
template <typename T>
std::uint64_t fnv_digest(const std::vector<T>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const T& v : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string stats_fields(const htm::HtmStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "commits=%llu serialized=%llu aborts_conflict=%llu "
                "aborts_capacity=%llu aborts_other=%llu cas=%llu acc=%llu",
                static_cast<unsigned long long>(s.committed),
                static_cast<unsigned long long>(s.serialized),
                static_cast<unsigned long long>(s.aborts_conflict),
                static_cast<unsigned long long>(s.aborts_capacity),
                static_cast<unsigned long long>(s.aborts_other),
                static_cast<unsigned long long>(s.atomic_cas),
                static_cast<unsigned long long>(s.atomic_acc));
  return buf;
}

/// Runs outside the registry: the distributed PageRank modes, the HAMA-
/// and SNAP-like baselines, the ownership protocol and a PageRank under
/// the AdaptiveBatch controller. Each returns its snapshot line.
std::vector<std::function<std::string(sim::ShardId)>> extra_rows(
    const algorithms::Inputs& in) {
  std::vector<std::function<std::string(sim::ShardId)>> rows;
  for (const algorithms::DistPrMode mode :
       {algorithms::DistPrMode::kAam, algorithms::DistPrMode::kPbgl}) {
    rows.push_back([&in, mode](sim::ShardId shard) {
      // PBGL runs one process per thread (§6.2).
      const int nodes = mode == algorithms::DistPrMode::kAam ? 4 : 16;
      const graph::Block1D part(in.g.num_vertices(), nodes);
      mem::SimHeap heap;
      net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort, nodes,
                           16 / nodes, heap, /*seed=*/1);
      cluster.machine().bind_shard(shard);
      algorithms::DistPrOptions options;
      options.iterations = in.pr_iterations;
      options.mode = mode;
      const auto r =
          algorithms::run_distributed_pagerank(cluster, in.g, part, options);
      char line[512];
      std::snprintf(line, sizeof(line),
                    "BGQ pagerank-dist %s time=%a %s messages=%llu "
                    "bytes=%llu items=%llu remote_atomics=%llu "
                    "digest=%016llx\n",
                    algorithms::to_string(mode), r.total_time_ns,
                    stats_fields(r.stats).c_str(),
                    static_cast<unsigned long long>(r.net.messages_sent),
                    static_cast<unsigned long long>(r.net.bytes_sent),
                    static_cast<unsigned long long>(r.net.items_sent),
                    static_cast<unsigned long long>(r.net.remote_atomics),
                    static_cast<unsigned long long>(fnv_digest(r.rank)));
      return std::string(line);
    });
  }
  rows.push_back([&in](sim::ShardId shard) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap,
                            /*seed=*/1);
    machine.bind_shard(shard);
    baselines::BspEngine::Result result;
    const auto level = baselines::bsp_bfs(machine, in.g, in.root, &result);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "Has-C bfs hama time=%a supersteps=%d messages=%llu "
                  "digest=%016llx\n",
                  result.total_time_ns, result.supersteps,
                  static_cast<unsigned long long>(result.messages_sent),
                  static_cast<unsigned long long>(fnv_digest(level)));
    return std::string(line);
  });
  rows.push_back([&in](sim::ShardId shard) {
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap,
                            /*seed=*/1);
    machine.bind_shard(shard);
    const auto r = baselines::snap_bfs(machine, in.g, in.root);
    char line[256];
    std::snprintf(line, sizeof(line), "Has-C bfs snap time=%a digest=%016llx\n",
                  r.total_time_ns,
                  static_cast<unsigned long long>(fnv_digest(r.level)));
    return std::string(line);
  });
  // The O-1 and O-3 shapes of Fig 5i: one and three remote elements.
  for (const int remote : {1, 3}) {
    rows.push_back([remote](sim::ShardId shard) {
      constexpr int kNodes = 4;
      constexpr graph::Vertex kVertices = 256;
      mem::SimHeap heap;
      net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort, kNodes, 1,
                           heap, /*seed=*/1);
      cluster.machine().bind_shard(shard);
      auto markers = heap.alloc<std::uint64_t>(kVertices);
      auto values = heap.alloc<std::uint64_t>(kVertices);
      const graph::Block1D part(kVertices, kNodes);
      core::OwnershipProtocol proto(cluster, markers, values, part);
      core::OwnershipProtocol::Params params;
      params.txns_per_process = 100;
      params.local_elements = 4 + remote;
      params.remote_elements = remote;
      const auto s = proto.run(params);
      std::vector<std::uint64_t> final_values(values.begin(), values.end());
      char line[512];
      std::snprintf(line, sizeof(line),
                    "BGQ ownership b=%d time=%a completed=%llu "
                    "cas_attempts=%llu cas_failures=%llu rounds=%llu "
                    "backoffs=%llu blocked=%llu digest=%016llx\n",
                    remote, s.makespan_ns,
                    static_cast<unsigned long long>(s.transactions_completed),
                    static_cast<unsigned long long>(s.marker_cas_attempts),
                    static_cast<unsigned long long>(s.marker_cas_failures),
                    static_cast<unsigned long long>(s.acquisition_rounds),
                    static_cast<unsigned long long>(s.backoffs),
                    static_cast<unsigned long long>(s.local_blocked),
                    static_cast<unsigned long long>(fnv_digest(final_values)));
      return std::string(line);
    });
  }
  rows.push_back([&in](sim::ShardId shard) {
    // PageRank's push operator in coarse transactions whose M the default
    // AdaptiveBatch controller picks online.
    mem::SimHeap heap;
    htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort, 16, heap,
                            /*seed=*/1);
    machine.bind_shard(shard);
    const graph::Graph& g = in.g;
    const graph::Vertex n = g.num_vertices();
    auto old_rank = heap.alloc<double>(n);
    auto new_rank = heap.alloc<double>(n);
    for (graph::Vertex v = 0; v < n; ++v) old_rank[v] = 1.0 / n;
    const double damping = 0.85;
    const double base = (1.0 - damping) / n;
    machine.reset_clocks();
    core::AamRuntime rt(machine, {});
    core::AdaptiveBatch adaptive;
    rt.set_adaptive(&adaptive);
    std::vector<int> batches;
    for (int iter = 0; iter < 4 * in.pr_iterations; ++iter) {
      for (graph::Vertex v = 0; v < n; ++v) new_rank[v] = 0.0;
      rt.for_each(n, [&](auto& access, std::uint64_t item) {
        algorithms::ops::pagerank_push(access, g, old_rank, new_rank,
                                       static_cast<graph::Vertex>(item), base,
                                       damping);
      });
      std::swap(old_rank, new_rank);
      batches.push_back(adaptive.batch());
    }
    std::vector<double> rank(old_rank.begin(), old_rank.end());
    char line[512];
    std::snprintf(line, sizeof(line),
                  "BGQ pagerank adaptive time=%a %s batches=%016llx "
                  "digest=%016llx\n",
                  machine.makespan(), stats_fields(machine.stats()).c_str(),
                  static_cast<unsigned long long>(fnv_digest(batches)),
                  static_cast<unsigned long long>(fnv_digest(rank)));
    return std::string(line);
  });
  return rows;
}

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
  const auto extras = extra_rows(in);
  std::vector<std::string> lines(cells.size() + extras.size());
  sim::ShardRunner(0).run(lines.size(), [&](sim::ShardId cell_id) {
    if (cell_id >= cells.size()) {
      lines[cell_id] = extras[cell_id - cells.size()](cell_id);
      return;
    }
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
