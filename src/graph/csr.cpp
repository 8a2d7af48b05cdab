#include "graph/csr.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace aam::graph {

namespace {

struct Arc {
  Vertex src;
  Vertex dst;
  float weight;
};

// Sorting by (src, dst) lays out the rows and sorts each one: the
// sorted-row invariant of csr.hpp rests on this sort. The weight breaks
// ties, so dedupe keeps the lightest of an edge's duplicates, and keeps it
// on both directions of an undirected edge. (src, dst) compares as one
// packed 64-bit key, which sorts faster than two field compares.
Graph build(Vertex n, std::vector<Arc>& arcs, bool dedupe, bool weighted,
            std::vector<std::uint64_t>& offsets, std::vector<Vertex>& adj,
            std::vector<float>& weights) {
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    const std::uint64_t ka = std::uint64_t{a.src} << 32 | a.dst;
    const std::uint64_t kb = std::uint64_t{b.src} << 32 | b.dst;
    return ka != kb ? ka < kb : a.weight < b.weight;
  });
  if (dedupe) {
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const Arc& a, const Arc& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               arcs.end());
  }

  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Arc& a : arcs) ++offsets[a.src + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  adj.resize(arcs.size());
  if (weighted) weights.resize(arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    adj[i] = arcs[i].dst;
    if (weighted) weights[i] = arcs[i].weight;
  }
  return {};
}

}  // namespace

Graph Graph::from_edges(Vertex n, const EdgeList& edges, bool undirected,
                        bool dedupe) {
  std::vector<Arc> arcs;
  arcs.reserve(edges.size() * (undirected ? 2 : 1));
  for (const auto& [u, v] : edges) {
    AAM_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    if (u == v) continue;
    arcs.push_back({u, v, 1.0f});
    if (undirected) arcs.push_back({v, u, 1.0f});
  }
  Graph g;
  g.n_ = n;
  build(n, arcs, dedupe, /*weighted=*/false, g.offsets_, g.adj_, g.weights_);
  return g;
}

Graph Graph::from_weighted_edges(Vertex n, const EdgeList& edges,
                                 const std::vector<float>& weights,
                                 bool undirected) {
  AAM_CHECK(edges.size() == weights.size());
  std::vector<Arc> arcs;
  arcs.reserve(edges.size() * (undirected ? 2 : 1));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& [u, v] = edges[i];
    AAM_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    if (u == v) continue;
    arcs.push_back({u, v, weights[i]});
    if (undirected) arcs.push_back({v, u, weights[i]});
  }
  Graph g;
  g.n_ = n;
  build(n, arcs, /*dedupe=*/true, /*weighted=*/true, g.offsets_, g.adj_,
        g.weights_);
  return g;
}

std::size_t Graph::memory_bytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         adj_.size() * sizeof(Vertex) + weights_.size() * sizeof(float);
}

}  // namespace aam::graph
