#pragma once

// Mechanism-neutral operator formulations (§3.3).
//
// Each function is one single-element operator body from the paper's
// listings, templated over the access surface so the same code runs under
// every ActivityExecutor — coarse HTM transactions, per-item atomics, fine
// locks, the global serial lock, and the software TM.
// Instantiations: every access type of core/executor_impl.hpp (the five
// mechanisms' own, their --check recording wrappers and the serial
// replay), plus analysis::AbstractAccess for the static signatures.

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/executor.hpp"
#include "graph/csr.hpp"

namespace aam::algorithms::ops {

/// BFS visit (Listing 4): claim w for parent u. Returns true when this
/// activity won the vertex. FF & MF: losing the race is an algorithm-level
/// May-Fail, not a hardware abort.
template <typename Acc>
bool bfs_visit(Acc& a, std::span<graph::Vertex> parent, graph::Vertex w,
               graph::Vertex u) {
  return a.cas(parent[w], graph::kInvalidVertex, u);
}

/// PageRank push (Listing 3), FF & AS: vertex v adds its base rank and
/// pushes a damped share of its stale rank onto each neighbor.
template <typename Acc>
void pagerank_push(Acc& a, const graph::Graph& g,
                   std::span<const double> old_rank,
                   std::span<double> new_rank, graph::Vertex v, double base,
                   double damping) {
  a.fetch_add(new_rank[v], base);
  const auto nbrs = g.neighbors(v);
  if (nbrs.empty()) return;
  const double share =
      damping * a.load(old_rank[v]) / static_cast<double>(nbrs.size());
  for (graph::Vertex w : nbrs) a.fetch_add(new_rank[w], share);
}

/// SSSP relaxation (the BFS operator with a distance payload, §5.4.1).
/// Returns true when the distance improved. The retry loop only matters
/// for non-transactional executors; under a transaction the first CAS
/// succeeds or the candidate is stale.
template <typename Acc>
bool sssp_relax(Acc& a, std::span<double> distance, graph::Vertex v,
                double candidate) {
  for (;;) {
    const double current = a.load(distance[v]);
    if (current <= candidate) return false;
    if (a.cas(distance[v], current, candidate)) return true;
  }
}

/// Union-find root walk with mechanism-modelled per-hop loads (no path
/// compression: keeps the chains identical to what a transactional variant
/// re-reads).
template <typename Acc>
graph::Vertex uf_root(Acc& a, std::span<graph::Vertex> parent,
                      graph::Vertex v) {
  graph::Vertex r = v;
  for (;;) {
    const graph::Vertex p = a.load(parent[r]);
    if (p == r) return r;
    r = p;
  }
}

/// Boruvka merge (Listing 5 shape), FR & MF: link the components of u and
/// v with a deterministic orientation (larger root under smaller). Returns
/// false when the components were already united by a concurrent activity.
template <typename Acc>
bool uf_union(Acc& a, std::span<graph::Vertex> parent, graph::Vertex u,
              graph::Vertex v) {
  for (;;) {
    const graph::Vertex ru = uf_root(a, parent, u);
    const graph::Vertex rv = uf_root(a, parent, v);
    if (ru == rv) return false;
    const graph::Vertex hi = std::max(ru, rv);
    const graph::Vertex lo = std::min(ru, rv);
    // A failed CAS means another activity moved this root meanwhile:
    // re-walk from the new roots (non-transactional executors only).
    if (a.cas(parent[hi], hi, lo)) return true;
  }
}

/// Boman coloring assignment (Listing 7 shape), FR & AS: commit the
/// tentative color, then report every clashing neighbor. Each clashing
/// *pair* surrenders one endpoint — the pre-drawn `coin` (stable across
/// transactional re-execution) picks which — or a conflict could survive
/// the round undetected. Emits the vertices to recolor next round.
template <typename Acc>
void color_assign(Acc& a, const graph::Graph& g,
                  std::span<std::uint32_t> color, graph::Vertex v,
                  std::uint32_t tentative, bool coin) {
  a.store(color[v], tentative);
  bool recolor_self = false;
  for (graph::Vertex w : g.neighbors(v)) {
    if (w != v && a.load(color[w]) == tentative) {
      if (coin) {
        a.emit(w);
      } else {
        recolor_self = true;
      }
    }
  }
  if (recolor_self) a.emit(v);
}

/// ST-connectivity visit (Listing 6), FR & AS: claim v for the wave
/// `wave_color`. Emits `hit_mark` when the other wave already owns v (the
/// s-t connection), or `claim_token` when this activity colored v; an
/// already-own-wave vertex emits nothing.
template <typename Acc>
void st_visit(Acc& a, std::span<std::uint32_t> color, graph::Vertex v,
              std::uint32_t wave_color, std::uint32_t white,
              std::uint64_t hit_mark, std::uint64_t claim_token) {
  const std::uint32_t cur = a.load(color[v]);
  if (cur != white && cur != wave_color) {
    a.emit(hit_mark);  // the other wave owns it: s-t connect
    return;
  }
  if (cur == wave_color) return;
  if (a.cas(color[v], white, wave_color)) a.emit(claim_token);
}

}  // namespace aam::algorithms::ops
