#include "baselines/bsp_engine.hpp"

#include <memory>

#include "core/worklist.hpp"
#include "graph/gstats.hpp"
#include "util/check.hpp"

namespace aam::baselines {

namespace {

using graph::Vertex;

/// Serialize + route + deserialize, per message.
constexpr double kPerMessageNs = 1800.0;
/// Framework dispatch per compute() call.
constexpr double kPerVertexNs = 250.0;
constexpr int kMaxSupersteps = 100000;

struct BspState {
  const graph::Graph* graph = nullptr;
  BspEngine::ComputeFn compute;

  int superstep = 0;
  std::vector<std::vector<BspEngine::Message>> inbox;   // per vertex
  std::vector<std::vector<BspEngine::Message>> next_inbox;
  std::vector<bool> halted;
  core::ChunkCursor* cursor = nullptr;
  std::uint64_t messages_sent = 0;
};

class BspWorker : public htm::Worker {
 public:
  explicit BspWorker(BspState& state) : state_(state) {}

  std::vector<std::pair<Vertex, BspEngine::Message>>& outbox() {
    return outbox_;
  }

  bool next(htm::ThreadCtx& ctx) override {
    std::uint64_t begin = 0, end = 0;
    if (!state_.cursor->claim(ctx, state_.graph->num_vertices(), 128, begin,
                              end)) {
      return false;
    }
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto v = static_cast<Vertex>(i);
      auto& msgs = state_.inbox[v];
      const bool active =
          !state_.halted[v] || !msgs.empty() || state_.superstep == 0;
      if (!active) continue;

      // Framework dispatch + message deserialization costs.
      ctx.compute(kPerVertexNs +
                  kPerMessageNs * static_cast<double>(msgs.size()));

      BspEngine::VertexContext vctx(v, state_.superstep, msgs,
                                    state_.graph->neighbors(v), &outbox_);
      const std::size_t sent_before = outbox_.size();
      state_.compute(vctx);
      state_.halted[v] = vctx.halted();
      // Message serialization cost at the sender.
      ctx.compute(kPerMessageNs *
                  static_cast<double>(outbox_.size() - sent_before));
      msgs.clear();
    }
    return true;
  }

 private:
  BspState& state_;
  std::vector<std::pair<Vertex, BspEngine::Message>> outbox_;
};

}  // namespace

BspEngine::Result BspEngine::run(htm::DesMachine& machine,
                                 const graph::Graph& graph,
                                 ComputeFn compute) {
  const Vertex n = graph.num_vertices();
  AAM_CHECK(n > 0);

  BspState state;
  state.graph = &graph;
  state.compute = std::move(compute);
  state.inbox.resize(n);
  state.next_inbox.resize(n);
  state.halted.assign(n, false);
  core::ChunkCursor cursor(machine.heap());
  state.cursor = &cursor;

  machine.reset_clocks();
  std::vector<std::unique_ptr<BspWorker>> workers;
  for (int t = 0; t < machine.num_threads(); ++t) {
    workers.push_back(std::make_unique<BspWorker>(state));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  Result result;
  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    // Superstep barrier: route all outboxes into next-superstep inboxes.
    std::uint64_t delivered = 0;
    for (auto& w : workers) {
      for (const auto& [target, msg] : w->outbox()) {
        state.next_inbox[target].push_back(msg);
        ++delivered;
      }
      w->outbox().clear();
    }
    state.messages_sent += delivered;
    ++state.superstep;
    ++result.supersteps;

    bool any_active = delivered > 0;
    if (!any_active) {
      for (Vertex v = 0; v < n; ++v) {
        if (!state.halted[v]) {
          any_active = true;
          break;
        }
      }
    }
    if (!any_active || state.superstep >= kMaxSupersteps) {
      return false;
    }
    std::swap(state.inbox, state.next_inbox);
    cursor.reset_direct();
    m.barrier_release(kSuperstepOverheadNs);
    return true;
  });
  machine.run();
  machine.set_quiescence_hook(nullptr);

  result.messages_sent = state.messages_sent;
  result.total_time_ns = machine.makespan();
  return result;
}

std::vector<std::uint32_t> bsp_bfs(htm::DesMachine& machine,
                                   const graph::Graph& graph,
                                   graph::Vertex root,
                                   BspEngine::Result* result) {
  std::vector<std::uint32_t> level(graph.num_vertices(),
                                   graph::kInvalidLevel);
  const BspEngine::Result r = BspEngine::run(
      machine, graph, [&](BspEngine::VertexContext& ctx) {
        const Vertex v = ctx.vertex();
        if (ctx.superstep() == 0) {
          if (v == root) {
            level[v] = 0;
            ctx.send_to_neighbors(1);
          }
          ctx.vote_to_halt();
          return;
        }
        if (level[v] == graph::kInvalidLevel && !ctx.messages().empty()) {
          level[v] = static_cast<std::uint32_t>(ctx.messages()[0]);
          ctx.send_to_neighbors(level[v] + 1);
        }
        ctx.vote_to_halt();
      });
  if (result != nullptr) *result = r;
  return level;
}

}  // namespace aam::baselines
