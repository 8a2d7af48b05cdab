#pragma once

// Boruvka minimum spanning tree / forest (§3.3.3), FR & MF.
//
// Each round, every component finds its minimum-weight outgoing edge and
// the components at its endpoints are merged by a transaction that links
// one component root under the other. Two concurrent merges touching the
// same components conflict; one of them fails at the algorithm level
// (May-Fail) and the spawner learns about it (Fire-and-Return) — the edge
// is simply retried in the next round if still relevant.
//
// Weights are expected to be distinct (tie-broken by edge id internally),
// which makes the MST unique and equal to the Kruskal reference.

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

struct BoruvkaOptions : core::ExecConfig {
  BoruvkaOptions() : ExecConfig{.batch = 4} {}  ///< default M: 4 merges
  double barrier_cost_ns = 600.0;
  int max_rounds = 64;
};

struct BoruvkaResult {
  double total_weight = 0;
  std::uint64_t edges_in_forest = 0;
  int rounds = 0;
  std::uint64_t failed_merges = 0;  ///< algorithm-level May-Fail events
  double total_time_ns = 0;
  htm::HtmStats stats;
};

/// Runs Boruvka on a weighted graph (Graph::from_weighted_edges).
BoruvkaResult run_boruvka(htm::DesMachine& machine, const graph::Graph& graph,
                          const BoruvkaOptions& options);

/// Kruskal reference: total weight of the minimum spanning forest.
double mst_reference_weight(const graph::Graph& graph);

}  // namespace aam::algorithms
