#pragma once

// Distributed PageRank (§6.2, Fig 7c-e).
//
// The graph is 1-D partitioned over the cluster. Each iteration, every
// node walks its local vertices and *pushes* each edge's contribution
// d * old_rank(v) / out_deg(v) to the owner of the target vertex as an
// atomic active message item (packing the target vertex and the
// contribution into 64 bits).
//
// Two execution modes reproduce the paper's comparison:
//
//   kAam  — contributions are coalesced C per message and applied at the
//           owner in ONE coarse hardware transaction per batch, using all
//           T threads per node. This amortizes the expensive ACC-style
//           conflicts of §5.4.2 exactly as §5.6.1 describes.
//   kPbgl — the Parallel Boost Graph Library stand-in: the same AM push,
//           but applied item-by-item with atomic accumulates plus the
//           generic per-item software overhead of a general-purpose AM
//           framework, with PBGL's shallower message buffering.
//           (Substitution note: real PBGL processes incoming edges and
//           runs one process per core; the stand-in keeps the properties
//           the paper credits for the performance gap — no coarse
//           transactions, higher per-item overhead, weaker coalescing.)

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "net/cluster.hpp"

namespace aam::algorithms {

enum class DistPrMode { kAam, kPbgl };

const char* to_string(DistPrMode mode);

struct DistPrOptions {
  int iterations = 5;
  double damping = 0.85;
  DistPrMode mode = DistPrMode::kAam;
  int coalesce = 16;       ///< C (AAM); the PBGL stand-in uses min(C, 4)
  int local_batch = 16;    ///< M for locally-executed batches
  /// Synchronization mechanism for the AAM mode's receiver-side batches.
  core::Mechanism mechanism = core::Mechanism::kHtmCoarsened;
  double pbgl_item_overhead_ns = 300.0;  ///< generic AM framework cost/item
  double barrier_cost_ns = 3000.0;       ///< per-iteration global barrier
  /// Optional --check recorder (check::Checker); nullptr = unchecked.
  core::BatchRecorder* recorder = nullptr;
};

struct DistPrResult {
  std::vector<double> rank;
  double total_time_ns = 0;
  htm::HtmStats stats;
  net::NetStats net;
};

/// Runs distributed PageRank on `cluster`; state lives on its heap.
DistPrResult run_distributed_pagerank(net::Cluster& cluster,
                                      const graph::Graph& graph,
                                      const graph::Block1D& part,
                                      const DistPrOptions& options);

}  // namespace aam::algorithms
