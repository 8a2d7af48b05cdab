#pragma once

// The SNAP-like sequential BFS of the §6 comparisons.
//
// The other BFS comparators are configurations, not code: the OpenMP
// Graph500 reference is algorithms::run_bfs under core::Mechanism::
// kAtomicOps with M = 1 (CAS plus the visited pre-check, §6.1), and the
// Galois-like engine is the same call under kFineLocks (per-vertex locks,
// §6.1.2). snap_bfs models a network-analysis library that "does not
// efficiently use threading" (§6.1.2): one logical thread with a
// per-vertex framework dispatch overhead.
//
// The HAMA-like comparator lives in bsp_engine.hpp.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::baselines {

struct SnapBfsResult {
  std::vector<std::uint32_t> level;
  double total_time_ns = 0;
};

/// SNAP-like sequential BFS: single logical thread, per-vertex dispatch
/// overhead of a generic analysis library.
SnapBfsResult snap_bfs(htm::DesMachine& machine, const graph::Graph& graph,
                       graph::Vertex root);

}  // namespace aam::baselines
