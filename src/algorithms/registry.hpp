#pragma once

// The intra-node algorithm registry (§4.1: one runtime, the same operator
// bodies under any synchronization mechanism; the caller only picks the
// mechanism).
//
// One entry per algorithm that runs on a single DesMachine. An entry runs
// its algorithm on the shared Inputs under any core::ExecConfig and
// reduces the result to a RunReport: the deterministic element count
// bench_throughput rates, the simulated time and engine counters, the
// golden FNV digest of the full answer, and the schedule-invariant
// Projection the fault matrix compares across runs. Benches and tests loop
// over registry() instead of spelling out the algorithm x mechanism table;
// adding an algorithm means adding its sources and one entry here. The
// Cluster-backed distributed PageRank is not an entry.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

/// Shape of the shared inputs. The defaults are the golden scale-10 set.
struct InputSpec {
  int scale = 10;                         ///< Kronecker graph: 2^scale vertices
  int edge_factor = 4;
  std::uint64_t seed = 1;                 ///< `wg` draws from seed + 1
  graph::Vertex weighted_vertices = 600;  ///< Erdos-Renyi `wg` vertex count
  double weighted_p = 0.02;               ///< Erdos-Renyi `wg` edge probability
};

/// What every entry reads. make_inputs fills the graphs and endpoints;
/// callers adjust the per-algorithm values below.
struct Inputs {
  graph::Graph g;   ///< Kronecker, for the traversal algorithms
  graph::Graph wg;  ///< weighted Erdos-Renyi, for sssp and boruvka
  graph::Vertex root = 0;  ///< bfs root and st-conn s
  graph::Vertex st_t = 0;  ///< st-conn t: the last non-isolated vertex != root
  graph::Vertex sssp_source = 0;
  int pr_iterations = 3;
  std::uint64_t coloring_seed = 1;  ///< make_inputs sets spec.seed
};

Inputs make_inputs(const InputSpec& spec);

/// One algorithm's schedule-invariant answer: named scalar/vector slots,
/// some compared exactly, some under a tolerance.
struct Projection {
  std::vector<std::uint64_t> exact;   ///< compared bit-for-bit
  std::vector<double> approx;         ///< compared under `tolerance`
  double tolerance = 0;
};

/// Depth of every vertex under the BFS tree `parent` (kInvalidVertex for
/// unvisited vertices maps to a sentinel depth). Memoized chain walk.
std::vector<std::uint64_t> bfs_depths(const std::vector<graph::Vertex>& parent,
                                      graph::Vertex root);

/// Compares a projection against its baseline; returns a human-readable
/// diff description, or "" on a match.
std::string compare(const Projection& base, const Projection& got);

struct RunReport {
  std::uint64_t elements = 0;  ///< deterministic work count for the run
  double sim_ns = 0;
  htm::HtmStats stats;
  std::uint64_t digest = 0;  ///< FNV-1a over the full answer
  Projection projection;
  bool valid = false;  ///< the algorithm's own answer check passed
};

/// Brackets an entry's run_* call alone: `call` runs the simulation, and
/// the digest, projection and validity check are built after it returns.
/// Host-time harnesses pass one that times `call`.
using RunBracket = std::function<void(const std::function<void()>& call)>;

struct AlgorithmEntry {
  const char* name;
  bool weighted;  ///< runs on Inputs::wg (auto policies must probe it)
  core::OperatorId op;
  core::ExecConfig exec;  ///< the algorithm's default configuration
  RunReport (*impl)(htm::DesMachine&, const Inputs&, const core::ExecConfig&,
                    const RunBracket&);

  /// Runs the algorithm on `machine` (clocks and statistics are reset
  /// first) under `exec`.
  RunReport run(htm::DesMachine& machine, const Inputs& inputs,
                const core::ExecConfig& exec,
                const RunBracket& bracket = {}) const {
    return impl(machine, inputs, exec, bracket);
  }
};

/// bfs, pagerank, sssp, coloring, st-conn, boruvka — in that order.
std::span<const AlgorithmEntry> registry();

}  // namespace aam::algorithms
