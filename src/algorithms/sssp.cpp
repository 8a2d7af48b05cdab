#include "algorithms/sssp.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/frontier.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Relax {
  Vertex vertex;
  double distance;
};

struct SsspState {
  const graph::Graph* graph = nullptr;
  std::span<double> distance;
  core::ActivityExecutor* executor = nullptr;
  std::vector<Vertex> frontier;
  std::uint64_t relaxations = 0;
};

class SsspWorker : public core::FrontierWorker<SsspWorker, Relax, Vertex> {
 public:
  SsspWorker(SsspState& state, const core::FrontierClaim& claim)
      : FrontierWorker(claim), state_(state) {}

  std::uint64_t claim_limit() const { return state_.frontier.size(); }

  void scan(htm::ThreadCtx& ctx, std::uint64_t begin, std::uint64_t end) {
    const auto& g = *state_.graph;
    for (std::uint64_t i = begin; i < end; ++i) {
      const Vertex u = state_.frontier[i];
      const double du = ctx.load(state_.distance[u]);
      const auto nbrs = g.neighbors(u);
      const auto ws = g.weights(u);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const double cand = du + static_cast<double>(ws[e]);
        // Pre-check: skip relaxations that cannot improve (stale read is
        // fine; the transactional operator re-checks).
        if (ctx.load(state_.distance[nbrs[e]]) <= cand) continue;
        pending_.push_back({nbrs[e], cand});
      }
    }
  }

  // The BFS operator of Listing 4 with a distance payload: FF & MF.
  void visit(htm::ThreadCtx& ctx, std::size_t count) {
    take_tail(count);
    core::execute_batch(
        *state_.executor, ctx, batch_.size(),
        [this](auto& access, std::uint64_t i) {
          const Relax& r = batch_[i];
          if (ops::sssp_relax(access, state_.distance, r.vertex, r.distance)) {
            access.emit(r.vertex);
          }
        },
        [this](htm::ThreadCtx&, std::span<const std::uint64_t> improved) {
          state_.relaxations += improved.size();
          for (std::uint64_t v : improved) {
            next_.push_back(static_cast<Vertex>(v));
          }
        },
        core::OperatorId::kSsspRelax);
  }

 private:
  SsspState& state_;
};

}  // namespace

SsspResult run_sssp(htm::DesMachine& machine, const graph::Graph& graph,
                    const SsspOptions& options) {
  AAM_CHECK_MSG(graph.has_weights(), "SSSP needs a weighted graph");
  const Vertex n = graph.num_vertices();
  AAM_CHECK(options.source < n);

  SsspState state;
  state.graph = &graph;
  state.distance = machine.heap().alloc<double>(n, "sssp.distance");
  for (Vertex v = 0; v < n; ++v) state.distance[v] = kInf;
  state.distance[options.source] = 0.0;
  state.frontier = {options.source};
  core::FrontierLoop<SsspWorker> loop(machine, options, options.scan_chunk);
  state.executor = &loop.executor();

  SsspResult result;
  loop.run(
      options.barrier_cost_ns,
      [&](int) { return SsspWorker(state, loop.claim()); },
      [&](std::vector<Vertex>& next) {
        ++result.rounds;
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        if (next.empty()) return false;
        state.frontier = std::move(next);
        return true;
      },
      [&](auto&& io) { io(state.frontier, state.relaxations, result.rounds); });

  result.distance.assign(state.distance.begin(), state.distance.end());
  result.relaxations = state.relaxations;
  result.total_time_ns = machine.makespan();
  result.stats = machine.stats();
  return result;
}

std::vector<double> sssp_reference(const graph::Graph& graph,
                                   graph::Vertex source) {
  const Vertex n = graph.num_vertices();
  std::vector<double> dist(n, kInf);
  dist[source] = 0.0;
  using Entry = std::pair<double, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  queue.push({0.0, source});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    const auto nbrs = graph.neighbors(u);
    const auto ws = graph.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double cand = d + static_cast<double>(ws[i]);
      if (cand < dist[nbrs[i]]) {
        dist[nbrs[i]] = cand;
        queue.push({cand, nbrs[i]});
      }
    }
  }
  return dist;
}

}  // namespace aam::algorithms
