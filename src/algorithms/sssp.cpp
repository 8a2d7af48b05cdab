#include "algorithms/sssp.hpp"

#include <limits>
#include <memory>
#include <queue>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/worklist.hpp"
#include "htm/resilience.hpp"
#include "util/blob.hpp"
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
  SsspOptions options;
  std::span<double> distance;
  core::ActivityExecutor* executor = nullptr;
  std::vector<Vertex> frontier;
  core::ChunkCursor* cursor = nullptr;
  std::uint64_t relaxations = 0;
};

class SsspWorker : public htm::Worker {
 public:
  explicit SsspWorker(SsspState& state) : state_(state) {}

  void start_round() { done_scanning_ = false; }
  std::vector<Vertex>& next_frontier() { return next_frontier_; }

  bool next(htm::ThreadCtx& ctx) override {
    const int m = state_.options.batch;
    if (static_cast<int>(pending_.size()) >= m) {
      visit(ctx, static_cast<std::size_t>(m));
      return true;
    }
    if (!done_scanning_) {
      std::uint64_t begin = 0, end = 0;
      if (state_.cursor->claim(
              ctx, state_.frontier.size(),
              static_cast<std::uint32_t>(state_.options.scan_chunk), begin,
              end)) {
        scan(ctx, begin, end);
        return true;
      }
      done_scanning_ = true;
    }
    if (!pending_.empty()) {
      visit(ctx, pending_.size());
      return true;
    }
    return false;
  }

  // Checkpoint support; batch_ is never live at a safe instant.
  void save(util::BlobWriter& w) const {
    w.put_vector(pending_);
    w.put_vector(next_frontier_);
    w.put<std::uint8_t>(done_scanning_ ? 1 : 0);
  }
  void restore(util::BlobReader& r) {
    pending_ = r.get_vector<Relax>();
    next_frontier_ = r.get_vector<Vertex>();
    done_scanning_ = r.get<std::uint8_t>() != 0;
    batch_.clear();
  }

 private:
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
    batch_.assign(pending_.end() - static_cast<std::ptrdiff_t>(count),
                  pending_.end());
    pending_.resize(pending_.size() - count);
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
            next_frontier_.push_back(static_cast<Vertex>(v));
          }
        },
        core::OperatorId::kSsspRelax);
  }

  SsspState& state_;
  std::vector<Relax> pending_;
  std::vector<Relax> batch_;
  std::vector<Vertex> next_frontier_;
  bool done_scanning_ = false;
};

}  // namespace

SsspResult run_sssp(htm::DesMachine& machine, const graph::Graph& graph,
                    const SsspOptions& options) {
  AAM_CHECK_MSG(graph.has_weights(), "SSSP needs a weighted graph");
  const Vertex n = graph.num_vertices();
  AAM_CHECK(options.source < n);

  SsspState state;
  state.graph = &graph;
  state.options = options;
  state.distance = machine.heap().alloc<double>(n, "sssp.distance");
  for (Vertex v = 0; v < n; ++v) state.distance[v] = kInf;
  state.distance[options.source] = 0.0;
  state.frontier = {options.source};
  auto executor = core::make_executor(machine, options);
  state.executor = executor.get();
  core::ChunkCursor cursor(machine.heap());
  state.cursor = &cursor;

  machine.reset_clocks(0.0, /*clear_stats=*/true);
  std::vector<std::unique_ptr<SsspWorker>> workers;
  for (int t = 0; t < machine.num_threads(); ++t) {
    workers.push_back(std::make_unique<SsspWorker>(state));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  SsspResult result;
  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    ++result.rounds;
    std::vector<Vertex> next;
    for (auto& w : workers) {
      next.insert(next.end(), w->next_frontier().begin(),
                  w->next_frontier().end());
      w->next_frontier().clear();
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    if (next.empty()) return false;
    state.frontier = std::move(next);
    cursor.reset_direct();
    for (auto& w : workers) w->start_round();
    m.barrier_release(options.barrier_cost_ns);
    return true;
  });

  htm::ScopedHostState ckpt(
      machine.recovery_client(),
      {.save =
           [&](std::vector<std::uint8_t>& out) {
             util::BlobWriter w;
             w.put_vector(state.frontier);
             w.put<std::uint64_t>(state.relaxations);
             w.put<std::int32_t>(result.rounds);
             executor->save_state(w);
             for (auto& wk : workers) wk->save(w);
             out = w.take();
           },
       .restore =
           [&](const std::uint8_t* data, std::size_t len) {
             util::BlobReader r(data, len);
             state.frontier = r.get_vector<Vertex>();
             state.relaxations = r.get<std::uint64_t>();
             result.rounds = r.get<std::int32_t>();
             executor->restore_state(r);
             for (auto& wk : workers) wk->restore(r);
           }});

  machine.run();
  machine.set_quiescence_hook(nullptr);

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
