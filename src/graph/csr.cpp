#include "graph/csr.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/check.hpp"

namespace aam::graph {

namespace {

// After a scatter that advanced off[k] as row k's cursor, each cursor sits
// at its row's end, which is the next row's start: shift them back.
void rewind(std::vector<std::uint64_t>& off) {
  std::copy_backward(off.begin(), off.end() - 1, off.end());
  off[0] = 0;
}

// Two counting sorts lay out the rows, sorted: the first groups the arcs
// by target, and the second, stable, groups them by source while visiting
// targets in ascending order, so every row comes out sorted by target with
// an edge's duplicates adjacent. Dedupe keeps the lightest of them, on
// both directions of an undirected edge. A sorted row with its duplicates
// dropped is unique, so the arrays do not depend on the order the edges
// arrive in. `weights` is empty for an unweighted graph.
void build(Vertex n, const EdgeList& edges, std::span<const float> weights,
           bool undirected, bool dedupe, std::vector<std::uint64_t>& offsets,
           std::vector<Vertex>& adj, std::vector<float>& wts) {
  const bool weighted = !weights.empty();

  // By target: sources[by_dst[v] ..] are the sources of v's in-arcs. Each
  // endpoint is range-checked before it indexes anything.
  std::vector<std::uint64_t> by_dst(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    AAM_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    if (u == v) continue;
    ++by_dst[v + 1];
    if (undirected) ++by_dst[u + 1];
  }
  std::partial_sum(by_dst.begin(), by_dst.end(), by_dst.begin());
  std::vector<Vertex> sources(by_dst[n]);
  std::vector<float> source_w(weighted ? by_dst[n] : 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    if (u == v) continue;
    const std::uint64_t p = by_dst[v]++;
    sources[p] = u;
    if (weighted) source_w[p] = weights[i];
    if (undirected) {
      const std::uint64_t q = by_dst[u]++;
      sources[q] = v;
      if (weighted) source_w[q] = weights[i];
    }
  }
  rewind(by_dst);

  // By source. An undirected arc set is symmetric, so its out-degrees are
  // its in-degrees.
  if (undirected) {
    offsets = by_dst;
  } else {
    offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& [u, v] : edges) {
      if (u != v) ++offsets[u + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  }
  adj.resize(offsets[n]);
  if (weighted) wts.resize(offsets[n]);
  for (Vertex d = 0; d < n; ++d) {
    for (std::uint64_t i = by_dst[d]; i < by_dst[d + 1]; ++i) {
      const std::uint64_t p = offsets[sources[i]]++;
      adj[p] = d;
      if (weighted) wts[p] = source_w[i];
    }
  }
  rewind(offsets);
  if (!dedupe) return;

  // Dedupe each row in place and compact the rows to the front.
  std::uint64_t begin = 0;
  std::uint64_t out = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t end = offsets[v + 1];
    offsets[v] = out;
    for (std::uint64_t i = begin; i < end; ++i) {
      if (i > begin && adj[i] == adj[out - 1]) {
        if (weighted) wts[out - 1] = std::min(wts[out - 1], wts[i]);
        continue;
      }
      adj[out] = adj[i];
      if (weighted) wts[out] = wts[i];
      ++out;
    }
    begin = end;
  }
  offsets[n] = out;
  adj.resize(out);
  adj.shrink_to_fit();
  if (weighted) {
    wts.resize(out);
    wts.shrink_to_fit();
  }
}

}  // namespace

Graph Graph::from_edges(Vertex n, const EdgeList& edges, bool undirected,
                        bool dedupe) {
  Graph g;
  g.n_ = n;
  build(n, edges, {}, undirected, dedupe, g.offsets_, g.adj_, g.weights_);
  return g;
}

Graph Graph::from_weighted_edges(Vertex n, const EdgeList& edges,
                                 const std::vector<float>& weights,
                                 bool undirected) {
  AAM_CHECK(edges.size() == weights.size());
  Graph g;
  g.n_ = n;
  build(n, edges, weights, undirected, /*dedupe=*/true, g.offsets_, g.adj_,
        g.weights_);
  return g;
}

}  // namespace aam::graph
