#pragma once

// Named baseline entry points matching the comparison systems of §6.
//
// These are thin, documented wrappers over the shared BFS driver
// (algorithms/bfs.hpp) plus the SNAP-like sequential runner, so benchmark
// code reads like the paper's tables:
//
//   graph500_bfs  — the OpenMP Graph500 reference: atomics (CAS) with the
//                   visited pre-check optimization (§6.1 baseline).
//   galois_bfs    — the Galois-like engine: same worklist structure with
//                   per-vertex fine locks (§6.1.2; the paper modified
//                   Galois BFS to build a full BFS tree).
//   snap_bfs      — the SNAP-like network-analysis library: sequential
//                   traversal with per-vertex framework overhead ("does
//                   not efficiently use threading", §6.1.2).
//
// The HAMA-like comparator lives in bsp_engine.hpp.

#include "algorithms/bfs.hpp"
#include "core/executor.hpp"

namespace aam::baselines {

/// BFS under `mechanism` with `batch` operators per activity. The named
/// baselines below delegate here.
inline algorithms::BfsResult mechanism_bfs(
    htm::DesMachine& machine, const graph::Graph& graph, graph::Vertex root,
    core::Mechanism mechanism, int batch = 1,
    core::BatchRecorder* recorder = nullptr) {
  algorithms::BfsOptions options;
  options.root = root;
  options.mechanism = mechanism;
  options.batch = batch;
  options.recorder = recorder;
  return algorithms::run_bfs(machine, graph, options);
}

/// Graph500 reference BFS (atomic CAS + pre-check, one vertex per op).
inline algorithms::BfsResult graph500_bfs(
    htm::DesMachine& machine, const graph::Graph& graph, graph::Vertex root,
    core::BatchRecorder* recorder = nullptr) {
  return mechanism_bfs(machine, graph, root, core::Mechanism::kAtomicOps, 1,
                       recorder);
}

/// Galois-like BFS (fine per-vertex locks).
inline algorithms::BfsResult galois_bfs(
    htm::DesMachine& machine, const graph::Graph& graph, graph::Vertex root,
    core::BatchRecorder* recorder = nullptr) {
  return mechanism_bfs(machine, graph, root, core::Mechanism::kFineLocks, 1,
                       recorder);
}

struct SnapBfsResult {
  std::vector<std::uint32_t> level;
  double total_time_ns = 0;
};

/// SNAP-like sequential BFS: single logical thread, per-vertex dispatch
/// overhead of a generic analysis library.
SnapBfsResult snap_bfs(htm::DesMachine& machine, const graph::Graph& graph,
                       graph::Vertex root,
                       double per_vertex_overhead_ns = 90.0);

}  // namespace aam::baselines
