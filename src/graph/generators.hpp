#pragma once

// Synthetic graph generators.
//
// The paper evaluates on Kronecker graphs with power-law degree
// distributions (§5.5, §6.1, Graph500 parameters) and Erdős–Rényi graphs
// (§6.2). The additional families (preferential attachment, road lattice)
// are the structural analogs used to stand in for the SNAP real-world
// graphs of Table 1 — see analogs.hpp.

#include <cstdint>

#include "graph/csr.hpp"
#include "util/rng.hpp"

namespace aam::graph {

/// Graph500 initiator matrix: the probabilities of the (0,0), (0,1) and
/// (1,0) quadrants; (1,1) takes d = 1 - a - b - c.
inline constexpr double kKroneckerA = 0.57;
inline constexpr double kKroneckerB = 0.19;
inline constexpr double kKroneckerC = 0.19;

struct KroneckerParams {
  int scale = 16;       ///< |V| = 2^scale
  int edge_factor = 16; ///< |E| = edge_factor * |V| (before dedup)
  bool permute = true;  ///< relabel vertices to break generation locality
};

/// Graph500-style Kronecker (R-MAT) generator: power-law-ish degrees,
/// undirected.
Graph kronecker(const KroneckerParams& params, util::Rng& rng);
/// Same but returning the raw edge list (for distributed construction).
EdgeList kronecker_edges(const KroneckerParams& params, util::Rng& rng);

/// Erdős–Rényi G(n, p) via geometric skipping (expected O(n + |E|)).
/// Undirected; binomial degree distribution (§6.2).
Graph erdos_renyi(Vertex n, double p, util::Rng& rng);
EdgeList erdos_renyi_edges(Vertex n, double p, util::Rng& rng);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m` existing vertices weighted by degree. Heavy-tailed degrees; the
/// analog family for web/citation graphs.
Graph preferential_attachment(Vertex n, int m, util::Rng& rng);

/// W x H grid with 4-neighborhoods plus a small fraction of rewired
/// shortcut edges. Low constant degree, very high diameter — the road
/// network analog (Table 1 RNs).
Graph road_lattice(Vertex width, Vertex height, double shortcut_prob,
                   util::Rng& rng);

/// Uniform random weights in [lo, hi) for every input edge; used to build
/// weighted graphs for Boruvka MST.
std::vector<float> random_weights(std::size_t count, float lo, float hi,
                                  util::Rng& rng);

}  // namespace aam::graph
