#include "baselines/named.hpp"

#include <deque>

#include "graph/gstats.hpp"

namespace aam::baselines {

namespace {

using graph::Vertex;

/// Framework dispatch cost charged per expanded vertex.
constexpr double kPerVertexOverheadNs = 90.0;

// The whole traversal runs on logical thread 0 with modelled costs.
class SequentialBfsWorker : public htm::Worker {
 public:
  SequentialBfsWorker(const graph::Graph& graph, Vertex root,
                      std::vector<std::uint32_t>& level)
      : graph_(graph), level_(level) {
    level_.assign(graph.num_vertices(), graph::kInvalidLevel);
    level_[root] = 0;
    queue_.push_back(root);
  }

  bool next(htm::ThreadCtx& ctx) override {
    // One vertex expansion per work unit.
    if (queue_.empty()) return false;
    const Vertex u = queue_.front();
    queue_.pop_front();
    ctx.compute(kPerVertexOverheadNs);
    for (Vertex w : graph_.neighbors(u)) {
      ctx.compute(ctx.machine().config().atomics.load_ns);
      if (level_[w] == graph::kInvalidLevel) {
        level_[w] = level_[u] + 1;
        ctx.compute(ctx.machine().config().atomics.store_ns);
        queue_.push_back(w);
      }
    }
    return true;
  }

 private:
  const graph::Graph& graph_;
  std::vector<std::uint32_t>& level_;
  std::deque<Vertex> queue_;
};

}  // namespace

SnapBfsResult snap_bfs(htm::DesMachine& machine, const graph::Graph& graph,
                       graph::Vertex root) {
  machine.reset_clocks();
  SnapBfsResult result;
  SequentialBfsWorker worker(graph, root, result.level);
  machine.set_worker(0, &worker);
  machine.run();
  machine.set_worker(0, nullptr);
  result.total_time_ns = machine.makespan();
  return result;
}

}  // namespace aam::baselines
