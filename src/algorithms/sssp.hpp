#pragma once

// Single-Source Shortest Paths, the BFS generalization the paper names as
// a direct client of the "mark a vertex" activity class (§5.4.1): a
// round-based Bellman-Ford where distance relaxations execute as coarse
// May-Fail transactions, exactly like BFS visits with a payload.

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

struct SsspOptions : core::ExecConfig {
  graph::Vertex source = 0;
  int scan_chunk = 64;
  double barrier_cost_ns = 400.0;
};

struct SsspResult {
  std::vector<double> distance;  ///< +inf when unreachable
  int rounds = 0;
  std::uint64_t relaxations = 0;  ///< successful distance improvements
  double total_time_ns = 0;
  htm::HtmStats stats;
};

/// Requires a weighted graph with non-negative weights.
SsspResult run_sssp(htm::DesMachine& machine, const graph::Graph& graph,
                    const SsspOptions& options);

/// Sequential Dijkstra reference for validation.
std::vector<double> sssp_reference(const graph::Graph& graph,
                                   graph::Vertex source);

}  // namespace aam::algorithms
