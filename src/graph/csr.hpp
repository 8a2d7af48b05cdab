#pragma once

// Compressed-sparse-row graph (§3.1: G = (V, E)).
//
// The adjacency structure is immutable after construction and read-only
// during algorithm execution, matching the paper's workloads (BFS, PR,
// MST, coloring all mutate per-vertex *state*, not the topology — Boruvka
// operates on a separate mutable supervertex structure). Vertex state
// arrays live on the SimHeap; the topology lives in ordinary host memory.
//
// Every row is sorted ascending by target vertex (strictly ascending when
// duplicates are removed), whichever constructor built it: membership
// tests may binary-search neighbors(v).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace aam::graph {

using Vertex = std::uint32_t;
inline constexpr Vertex kInvalidVertex = static_cast<Vertex>(-1);

using EdgeList = std::vector<std::pair<Vertex, Vertex>>;

class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph over `n` vertices from an edge list.
  /// When `undirected`, each input edge is inserted in both directions.
  /// Self-loops are dropped; duplicate edges are removed when `dedupe`.
  static Graph from_edges(Vertex n, const EdgeList& edges, bool undirected,
                          bool dedupe = true);

  /// Same, attaching a weight per input edge (mirrored for undirected
  /// graphs). `weights.size()` must equal `edges.size()`.
  static Graph from_weighted_edges(Vertex n, const EdgeList& edges,
                                   const std::vector<float>& weights,
                                   bool undirected);

  Vertex num_vertices() const { return n_; }
  std::uint64_t num_edges() const { return adj_.size(); }  ///< directed count
  double avg_degree() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(adj_.size()) / static_cast<double>(n_);
  }

  std::uint32_t degree(Vertex v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// v's targets, sorted ascending.
  std::span<const Vertex> neighbors(Vertex v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  bool has_weights() const { return !weights_.empty(); }
  std::span<const float> weights(Vertex v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  /// Flat views (for whole-graph scans).
  std::span<const std::uint64_t> offsets() const { return offsets_; }
  std::span<const Vertex> adjacency() const { return adj_; }

 private:
  Vertex n_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n_+1
  std::vector<Vertex> adj_;
  std::vector<float> weights_;  // empty or parallel to adj_
};

}  // namespace aam::graph
