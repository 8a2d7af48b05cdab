#pragma once

// Level-synchronous parallel BFS (§3.3.2, §5.5, §6.1).
//
// All mechanisms share the same frontier expansion: threads claim chunks of
// the current frontier, scan adjacency (paying per-edge costs), pre-check
// the visited state of each neighbor (the Graph500 optimization the paper
// highlights: "reduces the amount of fine-grained synchronization by
// checking if the vertex was visited before executing an atomic"), and then
// *visit* the unvisited candidates through a core::ActivityExecutor. The
// selected core::Mechanism decides how a batch of visits synchronizes:
// one coarse HTM transaction (AAM, §4.2 Listing 8), one CAS per candidate
// (the Graph500 baseline), per-vertex fine locks (Galois-like), the global
// serial lock, or software TM.

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

/// Per-level synchronization cost of run_bfs.
inline constexpr double kBfsBarrierCostNs = 400.0;

struct BfsOptions : core::ExecConfig {
  graph::Vertex root = 0;
};

struct BfsResult {
  std::vector<graph::Vertex> parent;    ///< BFS tree (kInvalidVertex: unvisited)
  std::vector<double> level_times_ns;   ///< per-level makespan (Fig 1)
  double total_time_ns = 0;
  std::uint64_t vertices_visited = 0;
  std::uint64_t edges_scanned = 0;
  htm::HtmStats stats;                  ///< engine counters for this run
};

/// Runs BFS on `machine` (clocks and statistics are reset first).
/// Algorithm state lives on the machine's heap for the duration.
BfsResult run_bfs(htm::DesMachine& machine, const graph::Graph& graph,
                  const BfsOptions& options);

/// Validates a BFS tree: every visited vertex reaches the root through
/// parent edges that exist in the graph, the visited set equals the set
/// reachable from the root, and depths match true BFS levels.
bool validate_bfs_tree(const graph::Graph& graph, graph::Vertex root,
                       const std::vector<graph::Vertex>& parent);

}  // namespace aam::algorithms
