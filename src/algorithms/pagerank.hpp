#pragma once

// PageRank (§3.3.1, §6.2).
//
// Vertex-centric *push* formulation (Listing 3): the operator for vertex v
// adds (1-d)/|V| to v's own rank and pushes d * old_rank(v) / out_deg(v)
// onto each neighbor's rank. Stale ranks from the previous iteration feed
// the new ones (Jacobi iteration). Message class FF & AS: every activity
// must eventually commit, and conflicting rank accumulations are exactly
// the workload where HTM pays for aborts (§5.4.2) unless coarsened /
// coalesced.

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

struct PageRankOptions : core::ExecConfig {
  int iterations = 10;
  double damping = 0.85;
};

struct PageRankResult {
  std::vector<double> rank;
  double total_time_ns = 0;
  htm::HtmStats stats;
};

/// Intra-node AAM PageRank: each iteration runs every vertex operator in
/// coarse transactions of M via the AAM runtime.
PageRankResult run_pagerank(htm::DesMachine& machine,
                            const graph::Graph& graph,
                            const PageRankOptions& options);

/// Sequential host reference (same push formulation, same treatment of
/// dangling vertices: their mass is dropped, as in the Graph500-style
/// codes the paper builds on). For validating the parallel results.
std::vector<double> pagerank_reference(const graph::Graph& graph,
                                       int iterations, double damping);

}  // namespace aam::algorithms
