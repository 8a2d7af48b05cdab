#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace aam::graph {

EdgeList kronecker_edges(const KroneckerParams& params, util::Rng& rng) {
  AAM_CHECK(params.scale >= 1 && params.scale < 32);
  const Vertex n = Vertex{1} << params.scale;
  const std::uint64_t m =
      static_cast<std::uint64_t>(params.edge_factor) * n;
  const double ab = kKroneckerA + kKroneckerB;
  // Integer thresholds draw the same stream and pick the same quadrants
  // as comparing next_double() with ab, c / (1 - ab) and a / ab.
  const std::uint64_t t_ab = util::Rng::double_threshold(ab);
  const std::uint64_t t_c =
      util::Rng::double_threshold(kKroneckerC / (1.0 - ab));
  const std::uint64_t t_a = util::Rng::double_threshold(kKroneckerA / ab);

  EdgeList edges;
  edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    Vertex u = 0;
    Vertex v = 0;
    for (int bit = 0; bit < params.scale; ++bit) {
      // Choose the quadrant: (0,0) w.p. a, (0,1) w.p. b, (1,0) w.p. c,
      // (1,1) w.p. d = 1-a-b-c. Graph500 reference formulation.
      const bool u_bit = util::Rng::double_above(rng(), t_ab);
      const bool v_bit = util::Rng::double_above(rng(), u_bit ? t_c : t_a);
      u |= static_cast<Vertex>(u_bit) << bit;
      v |= static_cast<Vertex>(v_bit) << bit;
    }
    edges.emplace_back(u, v);
  }

  if (params.permute) {
    std::vector<Vertex> perm(n);
    std::iota(perm.begin(), perm.end(), Vertex{0});
    for (Vertex i = n; i > 1; --i) {
      const auto j = static_cast<Vertex>(rng.next_below(i));
      std::swap(perm[i - 1], perm[j]);
    }
    for (auto& [u, v] : edges) {
      u = perm[u];
      v = perm[v];
    }
  }
  return edges;
}

Graph kronecker(const KroneckerParams& params, util::Rng& rng) {
  const Vertex n = Vertex{1} << params.scale;
  return Graph::from_edges(n, kronecker_edges(params, rng),
                           /*undirected=*/true);
}

EdgeList erdos_renyi_edges(Vertex n, double p, util::Rng& rng) {
  AAM_CHECK(p > 0.0 && p < 1.0);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(
      p * static_cast<double>(n) * static_cast<double>(n) / 2.0 * 1.05));
  // Batagelj-Brandes geometric skipping over the lower triangle.
  const double log1mp = std::log(1.0 - p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  while (v < static_cast<std::int64_t>(n)) {
    const double r = 1.0 - rng.next_double();  // (0,1]
    w += 1 + static_cast<std::int64_t>(std::floor(std::log(r) / log1mp));
    while (w >= v && v < static_cast<std::int64_t>(n)) {
      w -= v;
      ++v;
    }
    if (v < static_cast<std::int64_t>(n)) {
      edges.emplace_back(static_cast<Vertex>(v), static_cast<Vertex>(w));
    }
  }
  return edges;
}

Graph erdos_renyi(Vertex n, double p, util::Rng& rng) {
  return Graph::from_edges(n, erdos_renyi_edges(n, p, rng),
                           /*undirected=*/true);
}

Graph preferential_attachment(Vertex n, int m, util::Rng& rng) {
  AAM_CHECK(m >= 1 && n > static_cast<Vertex>(m));
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(m));
  // Repeated-endpoints list: sampling uniformly from it is sampling
  // proportionally to degree.
  std::vector<Vertex> endpoints;
  endpoints.reserve(edges.capacity() * 2);
  // Seed clique over the first m+1 vertices.
  for (Vertex u = 0; u <= static_cast<Vertex>(m); ++u) {
    for (Vertex v = u + 1; v <= static_cast<Vertex>(m); ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (Vertex u = static_cast<Vertex>(m) + 1; u < n; ++u) {
    for (int j = 0; j < m; ++j) {
      const Vertex target =
          endpoints[rng.next_below(endpoints.size())];
      edges.emplace_back(u, target);
      endpoints.push_back(u);
      endpoints.push_back(target);
    }
  }
  return Graph::from_edges(n, edges, /*undirected=*/true);
}

Graph road_lattice(Vertex width, Vertex height, double shortcut_prob,
                   util::Rng& rng) {
  AAM_CHECK(width >= 2 && height >= 2);
  const Vertex n = width * height;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * 2 +
                static_cast<std::size_t>(shortcut_prob * n) + 16);
  auto id = [width](Vertex x, Vertex y) { return y * width + x; };
  for (Vertex y = 0; y < height; ++y) {
    for (Vertex x = 0; x < width; ++x) {
      if (x + 1 < width) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < height) edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  // A few long shortcuts model highways/bridges without destroying the
  // high-diameter character.
  const auto shortcuts = static_cast<std::uint64_t>(shortcut_prob * n);
  for (std::uint64_t s = 0; s < shortcuts; ++s) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, edges, /*undirected=*/true);
}

std::vector<float> random_weights(std::size_t count, float lo, float hi,
                                  util::Rng& rng) {
  AAM_CHECK(hi > lo);
  std::vector<float> w(count);
  for (auto& x : w) {
    x = lo + static_cast<float>(rng.next_double()) * (hi - lo);
  }
  return w;
}

}  // namespace aam::graph
