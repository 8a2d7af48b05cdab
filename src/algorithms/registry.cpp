#include "algorithms/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "algorithms/bfs.hpp"
#include "algorithms/boruvka.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/st_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"

namespace aam::algorithms {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

struct Digest {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kFnvPrime;
    }
  }
  void mix(double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  template <typename T>
  void mix_all(const std::vector<T>& values) {
    mix(static_cast<std::uint64_t>(values.size()));
    for (const T& v : values) mix(static_cast<std::uint64_t>(v));
  }
  void mix_all(const std::vector<double>& values) {
    mix(static_cast<std::uint64_t>(values.size()));
    for (double v : values) mix(v);
  }
};

/// The algorithm's Options with `exec` as its executor configuration.
template <typename Options>
Options options_for(const core::ExecConfig& exec) {
  Options o;
  static_cast<core::ExecConfig&>(o) = exec;
  return o;
}

/// Runs `call` inside `bracket` (directly when there is none) and records
/// the simulated time and engine counters of its result.
template <typename Call>
auto simulate(const RunBracket& bracket, RunReport& rep, Call call) {
  decltype(call()) r;
  if (bracket) {
    bracket([&] { r = call(); });
  } else {
    r = call();
  }
  rep.sim_ns = r.total_time_ns;
  rep.stats = r.stats;
  return r;
}

RunReport bfs_entry(htm::DesMachine& machine, const Inputs& in,
                    const core::ExecConfig& exec, const RunBracket& bracket) {
  auto o = options_for<BfsOptions>(exec);
  o.root = in.root;
  RunReport rep;
  const auto r =
      simulate(bracket, rep, [&] { return run_bfs(machine, in.g, o); });
  rep.elements = r.edges_scanned;
  Digest d;
  d.mix_all(r.parent);
  d.mix(r.vertices_visited);
  d.mix(r.edges_scanned);
  rep.digest = d.h;
  rep.projection.exact = bfs_depths(r.parent, in.root);
  rep.projection.exact.push_back(r.vertices_visited);
  rep.valid = validate_bfs_tree(in.g, in.root, r.parent);
  return rep;
}

RunReport pagerank_entry(htm::DesMachine& machine, const Inputs& in,
                         const core::ExecConfig& exec,
                         const RunBracket& bracket) {
  auto o = options_for<PageRankOptions>(exec);
  o.iterations = in.pr_iterations;
  RunReport rep;
  const auto r =
      simulate(bracket, rep, [&] { return run_pagerank(machine, in.g, o); });
  rep.elements = static_cast<std::uint64_t>(o.iterations) *
                 (in.g.num_edges() + in.g.num_vertices());
  Digest d;
  d.mix_all(r.rank);
  rep.digest = d.h;
  rep.projection.approx = r.rank;
  rep.projection.tolerance = 1e-9;
  rep.valid = !r.rank.empty();
  return rep;
}

RunReport sssp_entry(htm::DesMachine& machine, const Inputs& in,
                     const core::ExecConfig& exec, const RunBracket& bracket) {
  auto o = options_for<SsspOptions>(exec);
  o.source = in.sssp_source;
  RunReport rep;
  const auto r =
      simulate(bracket, rep, [&] { return run_sssp(machine, in.wg, o); });
  rep.elements = r.relaxations;
  Digest d;
  d.mix_all(r.distance);
  d.mix(r.relaxations);
  rep.digest = d.h;
  rep.projection.approx = r.distance;
  rep.projection.tolerance = 1e-9;
  rep.valid = r.relaxations > 0;
  return rep;
}

RunReport coloring_entry(htm::DesMachine& machine, const Inputs& in,
                         const core::ExecConfig& exec,
                         const RunBracket& bracket) {
  auto o = options_for<ColoringOptions>(exec);
  o.seed = in.coloring_seed;
  RunReport rep;
  const auto r = simulate(bracket, rep,
                          [&] { return run_boman_coloring(machine, in.g, o); });
  rep.elements = in.g.num_vertices() + r.recolor_requests;
  Digest d;
  d.mix_all(r.color);
  d.mix(r.recolor_requests);
  rep.digest = d.h;
  rep.valid = validate_coloring(in.g, r.color);
  rep.projection.exact.push_back(rep.valid ? 1 : 0);
  return rep;
}

RunReport st_conn_entry(htm::DesMachine& machine, const Inputs& in,
                        const core::ExecConfig& exec,
                        const RunBracket& bracket) {
  auto o = options_for<StConnOptions>(exec);
  o.s = in.root;
  o.t = in.st_t;
  RunReport rep;
  const auto r = simulate(
      bracket, rep, [&] { return run_st_connectivity(machine, in.g, o); });
  rep.elements = r.vertices_colored;
  Digest d;
  d.mix(static_cast<std::uint64_t>(r.connected));
  d.mix(r.vertices_colored);
  rep.digest = d.h;
  rep.projection.exact.push_back(r.connected ? 1 : 0);
  rep.valid = r.vertices_colored > 0;
  return rep;
}

RunReport boruvka_entry(htm::DesMachine& machine, const Inputs& in,
                        const core::ExecConfig& exec,
                        const RunBracket& bracket) {
  auto o = options_for<BoruvkaOptions>(exec);
  RunReport rep;
  const auto r =
      simulate(bracket, rep, [&] { return run_boruvka(machine, in.wg, o); });
  rep.elements = r.edges_in_forest;
  Digest d;
  d.mix(r.total_weight);
  d.mix(r.edges_in_forest);
  d.mix(r.failed_merges);
  rep.digest = d.h;
  rep.projection.exact.push_back(r.edges_in_forest);
  rep.projection.approx.push_back(r.total_weight);
  rep.projection.tolerance = 1e-6 * std::max(1.0, r.total_weight);
  rep.valid =
      r.total_weight <= mst_reference_weight(in.wg) * 1.0001 + 1.0;
  return rep;
}

}  // namespace

Inputs make_inputs(const InputSpec& spec) {
  util::Rng rng(spec.seed);
  graph::KroneckerParams params;
  params.scale = spec.scale;
  params.edge_factor = spec.edge_factor;
  Inputs in;
  in.g = graph::kronecker(params, rng);
  in.root = graph::pick_nonisolated_vertex(in.g);
  in.st_t = in.root;
  for (graph::Vertex v = in.g.num_vertices(); v-- > 0;) {
    if (v != in.root && !in.g.neighbors(v).empty()) {
      in.st_t = v;
      break;
    }
  }
  util::Rng wrng(spec.seed + 1);
  auto wedges =
      graph::erdos_renyi_edges(spec.weighted_vertices, spec.weighted_p, wrng);
  const auto weights =
      graph::random_weights(wedges.size(), 1.0f, 100.0f, wrng);
  in.wg = graph::Graph::from_weighted_edges(spec.weighted_vertices, wedges,
                                            weights, true);
  in.coloring_seed = spec.seed;
  return in;
}

std::vector<std::uint64_t> bfs_depths(const std::vector<graph::Vertex>& parent,
                                      graph::Vertex root) {
  constexpr std::uint64_t kUnvisited = ~std::uint64_t{0};
  std::vector<std::uint64_t> depth(parent.size(), kUnvisited);
  if (root < parent.size()) depth[root] = 0;
  for (graph::Vertex v = 0; v < parent.size(); ++v) {
    if (parent[v] == graph::kInvalidVertex || depth[v] != kUnvisited) continue;
    // Walk to a vertex of known depth, then unwind.
    std::vector<graph::Vertex> chain;
    graph::Vertex u = v;
    while (depth[u] == kUnvisited) {
      chain.push_back(u);
      u = parent[u];
    }
    std::uint64_t d = depth[u];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = ++d;
    }
  }
  return depth;
}

std::string compare(const Projection& base, const Projection& got) {
  char buf[160];
  if (base.exact.size() != got.exact.size() ||
      base.approx.size() != got.approx.size()) {
    return "projection shape differs";
  }
  for (std::size_t i = 0; i < base.exact.size(); ++i) {
    if (base.exact[i] != got.exact[i]) {
      std::snprintf(buf, sizeof(buf),
                    "exact[%zu]: baseline=%llu faulted=%llu", i,
                    static_cast<unsigned long long>(base.exact[i]),
                    static_cast<unsigned long long>(got.exact[i]));
      return buf;
    }
  }
  const double tol = std::max(base.tolerance, got.tolerance);
  for (std::size_t i = 0; i < base.approx.size(); ++i) {
    const double a = base.approx[i];
    const double b = got.approx[i];
    const bool a_inf = std::isinf(a);
    const bool b_inf = std::isinf(b);
    if (a_inf || b_inf) {
      if (a_inf == b_inf) continue;
      std::snprintf(buf, sizeof(buf),
                    "approx[%zu]: baseline=%g faulted=%g (infinity)", i, a, b);
      return buf;
    }
    if (std::abs(a - b) > tol) {
      std::snprintf(buf, sizeof(buf),
                    "approx[%zu]: baseline=%.17g faulted=%.17g tol=%g", i, a,
                    b, tol);
      return buf;
    }
  }
  return "";
}

std::span<const AlgorithmEntry> registry() {
  static const AlgorithmEntry kEntries[] = {
      {"bfs", false, core::OperatorId::kBfsVisit, BfsOptions{}, bfs_entry},
      {"pagerank", false, core::OperatorId::kPagerankPush, PageRankOptions{},
       pagerank_entry},
      {"sssp", true, core::OperatorId::kSsspRelax, SsspOptions{}, sssp_entry},
      {"coloring", false, core::OperatorId::kColorAssign, ColoringOptions{},
       coloring_entry},
      {"st-conn", false, core::OperatorId::kStVisit, StConnOptions{},
       st_conn_entry},
      {"boruvka", true, core::OperatorId::kUfUnion, BoruvkaOptions{},
       boruvka_entry},
  };
  return kEntries;
}

}  // namespace aam::algorithms
