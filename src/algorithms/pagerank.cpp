#include "algorithms/pagerank.hpp"

#include "algorithms/operators.hpp"
#include "core/runtime.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

using graph::Vertex;

PageRankResult run_pagerank(htm::DesMachine& machine,
                            const graph::Graph& graph,
                            const PageRankOptions& options) {
  const Vertex n = graph.num_vertices();
  AAM_CHECK(n > 0);
  auto old_rank = machine.heap().alloc<double>(n, "pagerank.rank");
  auto new_rank = machine.heap().alloc<double>(n, "pagerank.rank");
  const double init = 1.0 / static_cast<double>(n);
  for (Vertex v = 0; v < n; ++v) old_rank[v] = init;

  machine.reset_clocks();
  core::AamRuntime runtime(machine, options);

  const double d = options.damping;
  const double base = (1.0 - d) / static_cast<double>(n);

  for (int iter = 0; iter < options.iterations; ++iter) {
    for (Vertex v = 0; v < n; ++v) new_rank[v] = 0.0;
    // The Listing 3 operator, executed for every vertex in coarse
    // activities of M (FF & AS). Under kAtomicOps the pushes are
    // fetch-and-accumulates — the paper's ACC formulation.
    runtime.for_each(
        n,
        [&](auto& access, std::uint64_t item) {
          ops::pagerank_push(access, graph, old_rank, new_rank,
                             static_cast<Vertex>(item), base, d);
        },
        core::OperatorId::kPagerankPush);
    std::swap(old_rank, new_rank);
  }

  PageRankResult result;
  result.rank.assign(old_rank.begin(), old_rank.end());
  result.total_time_ns = machine.makespan();
  result.stats = machine.stats();
  return result;
}

std::vector<double> pagerank_reference(const graph::Graph& graph,
                                       int iterations, double damping) {
  const Vertex n = graph.num_vertices();
  std::vector<double> old_rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> new_rank(n);
  const double base = (1.0 - damping) / static_cast<double>(n);
  for (int iter = 0; iter < iterations; ++iter) {
    std::fill(new_rank.begin(), new_rank.end(), base);
    for (Vertex v = 0; v < n; ++v) {
      const auto nbrs = graph.neighbors(v);
      if (nbrs.empty()) continue;
      const double share =
          damping * old_rank[v] / static_cast<double>(nbrs.size());
      for (Vertex w : nbrs) new_rank[w] += share;
    }
    std::swap(old_rank, new_rank);
  }
  return old_rank;
}

}  // namespace aam::algorithms
