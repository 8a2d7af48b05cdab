#include "algorithms/coloring.hpp"

#include <algorithm>
#include <memory>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/worklist.hpp"
#include "htm/resilience.hpp"
#include "util/blob.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;

struct ColorState {
  const graph::Graph* graph = nullptr;
  ColoringOptions options;
  std::span<std::uint32_t> color;  // 0 = uncolored
  core::ActivityExecutor* executor = nullptr;
  std::vector<Vertex> worklist;
  core::ChunkCursor* cursor = nullptr;
  std::uint64_t recolor_requests = 0;
  // pick_color() scratch, shared by all workers: they run on the machine's
  // one host thread, and each call is done with it before it returns.
  std::vector<std::uint32_t> neighbor_colors;
  FirstFitScratch first_fit;
};

class ColorWorker : public htm::Worker {
 public:
  ColorWorker(ColorState& state, util::Rng rng) : state_(state), rng_(rng) {}

  void start_round() { done_scanning_ = false; }
  std::vector<Vertex>& next_worklist() { return next_worklist_; }

  bool next(htm::ThreadCtx& ctx) override {
    const int m = state_.options.batch;
    if (static_cast<int>(pending_.size()) >= m) {
      visit(ctx, static_cast<std::size_t>(m));
      return true;
    }
    if (!done_scanning_) {
      std::uint64_t begin = 0, end = 0;
      if (state_.cursor->claim(
              ctx, state_.worklist.size(),
              static_cast<std::uint32_t>(state_.options.scan_chunk), begin,
              end)) {
        for (std::uint64_t i = begin; i < end; ++i) {
          const Vertex v = state_.worklist[i];
          pending_.push_back({v, pick_color(ctx, v)});
        }
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

  // Checkpoint support. The worker RNG is part of the durable state: coin
  // flips after a restore must replay the original draws. batch_/coins_
  // are only live while a staged transaction is in flight (excluded at
  // safe instants).
  void save(util::BlobWriter& w) const {
    std::uint64_t rng_state[4];
    rng_.save_state(rng_state);
    for (std::uint64_t word : rng_state) w.put<std::uint64_t>(word);
    w.put_vector(pending_);
    w.put_vector(next_worklist_);
    w.put<std::uint8_t>(done_scanning_ ? 1 : 0);
  }
  void restore(util::BlobReader& r) {
    std::uint64_t rng_state[4];
    for (std::uint64_t& word : rng_state) word = r.get<std::uint64_t>();
    rng_.restore_state(rng_state);
    pending_ = r.get_vector<Tentative>();
    next_worklist_ = r.get_vector<Vertex>();
    done_scanning_ = r.get<std::uint8_t>() != 0;
    batch_.clear();
    coins_.clear();
  }

 private:
  struct Tentative {
    Vertex vertex;
    std::uint32_t color;
  };

  // Smallest color (>= 1) not used by v's neighbors, from a stale snapshot
  // (plain loads): the source of the inter-activity conflicts the failure
  // handler resolves.
  std::uint32_t pick_color(htm::ThreadCtx& ctx, Vertex v) {
    std::vector<std::uint32_t>& colors = state_.neighbor_colors;
    colors.clear();
    for (Vertex w : state_.graph->neighbors(v)) {
      colors.push_back(ctx.load(state_.color[w]));
    }
    return first_fit_color(colors, state_.first_fit);
  }

  void visit(htm::ThreadCtx& ctx, std::size_t count) {
    batch_.assign(pending_.end() - static_cast<std::ptrdiff_t>(count),
                  pending_.end());
    pending_.resize(pending_.size() - count);
    // Coin flips must be stable across transactional re-execution, so they
    // are drawn outside the body, one per batch entry.
    coins_.clear();
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      coins_.push_back(rng_.next_bool(0.5));
    }
    core::execute_batch(
        *state_.executor, ctx, batch_.size(),
        [this](auto& access, std::uint64_t i) {
          const Tentative t = batch_[i];
          ops::color_assign(access, *state_.graph, state_.color, t.vertex,
                            t.color, coins_[i]);
        },
        [this](htm::ThreadCtx&, std::span<const std::uint64_t> recolor) {
          // Failure handler: schedule the conflicting vertices for the
          // next round.
          state_.recolor_requests += recolor.size();
          for (std::uint64_t v : recolor) {
            next_worklist_.push_back(static_cast<Vertex>(v));
          }
        },
        core::OperatorId::kColorAssign);
  }

  ColorState& state_;
  util::Rng rng_;
  std::vector<Tentative> pending_;
  std::vector<Tentative> batch_;
  std::vector<bool> coins_;
  std::vector<Vertex> next_worklist_;
  bool done_scanning_ = false;
};

}  // namespace

ColoringResult run_boman_coloring(htm::DesMachine& machine,
                                  const graph::Graph& graph,
                                  const ColoringOptions& options) {
  const Vertex n = graph.num_vertices();
  AAM_CHECK(n > 0);

  ColorState state;
  state.graph = &graph;
  state.options = options;
  state.color = machine.heap().alloc<std::uint32_t>(n, "coloring.color");
  auto executor = core::make_executor(machine, options);
  state.executor = executor.get();
  core::ChunkCursor cursor(machine.heap());
  state.cursor = &cursor;
  state.worklist.resize(n);
  for (Vertex v = 0; v < n; ++v) state.worklist[v] = v;

  machine.reset_clocks(0.0, /*clear_stats=*/true);
  const util::Rng root(options.seed);
  std::vector<std::unique_ptr<ColorWorker>> workers;
  for (int t = 0; t < machine.num_threads(); ++t) {
    workers.push_back(std::make_unique<ColorWorker>(
        state, root.fork(static_cast<std::uint64_t>(t) + 1)));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  ColoringResult result;
  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    ++result.rounds;
    std::vector<Vertex> next;
    for (auto& w : workers) {
      next.insert(next.end(), w->next_worklist().begin(),
                  w->next_worklist().end());
      w->next_worklist().clear();
    }
    // The same vertex may be reported by several activities.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    if (next.empty() || result.rounds >= options.max_rounds) return false;
    state.worklist = std::move(next);
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
             w.put_vector(state.worklist);
             w.put<std::uint64_t>(state.recolor_requests);
             w.put<std::int32_t>(result.rounds);
             executor->save_state(w);
             for (auto& wk : workers) wk->save(w);
             out = w.take();
           },
       .restore =
           [&](const std::uint8_t* data, std::size_t len) {
             util::BlobReader r(data, len);
             state.worklist = r.get_vector<Vertex>();
             state.recolor_requests = r.get<std::uint64_t>();
             result.rounds = r.get<std::int32_t>();
             executor->restore_state(r);
             for (auto& wk : workers) wk->restore(r);
           }});

  machine.run();
  machine.set_quiescence_hook(nullptr);

  result.color.assign(state.color.begin(), state.color.end());
  result.colors_used =
      *std::max_element(result.color.begin(), result.color.end());
  result.recolor_requests = state.recolor_requests;
  result.total_time_ns = machine.makespan();
  result.stats = machine.stats();
  return result;
}

std::uint32_t first_fit_color(std::span<const std::uint32_t> colors,
                              FirstFitScratch& scratch) {
  // The answer lies in [1, k + 1] for k colors, so larger ones are skipped.
  const std::size_t bound = colors.size() + 1;
  if (scratch.seen.size() <= bound) scratch.seen.resize(bound + 1, 0);
  if (++scratch.stamp == 0) {
    // The stamp wrapped: stale marks would alias the new one.
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0);
    scratch.stamp = 1;
  }
  for (std::uint32_t c : colors) {
    if (c <= bound) scratch.seen[c] = scratch.stamp;
  }
  std::uint32_t candidate = 1;
  while (scratch.seen[candidate] == scratch.stamp) ++candidate;
  return candidate;
}

bool validate_coloring(const graph::Graph& graph,
                       const std::vector<std::uint32_t>& color) {
  if (color.size() != graph.num_vertices()) return false;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (color[v] == 0) return false;
    for (Vertex w : graph.neighbors(v)) {
      if (w != v && color[w] == color[v]) return false;
    }
  }
  return true;
}

}  // namespace aam::algorithms
