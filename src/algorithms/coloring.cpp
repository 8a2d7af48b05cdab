#include "algorithms/coloring.hpp"

#include <algorithm>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/frontier.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;

constexpr int kScanChunk = 32;
constexpr double kBarrierCostNs = 400.0;
// A safety bound: the heuristic converges long before.
constexpr int kMaxRounds = 256;

struct ColorState {
  const graph::Graph* graph = nullptr;
  std::span<std::uint32_t> color;  // 0 = uncolored
  core::ActivityExecutor* executor = nullptr;
  std::vector<Vertex> worklist;
  std::uint64_t recolor_requests = 0;
  // pick_color() scratch, shared by all workers: they run on the machine's
  // one host thread, and each call is done with it before it returns.
  std::vector<std::uint32_t> neighbor_colors;
  FirstFitScratch first_fit;
};

struct Tentative {
  Vertex vertex;
  std::uint32_t color;
};

class ColorWorker
    : public core::FrontierWorker<ColorWorker, Tentative, Vertex> {
 public:
  ColorWorker(ColorState& state, const core::FrontierClaim& claim,
              util::Rng rng)
      : FrontierWorker(claim), state_(state), rng_(rng) {}

  std::uint64_t claim_limit() const { return state_.worklist.size(); }

  void scan(htm::ThreadCtx& ctx, std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const Vertex v = state_.worklist[i];
      pending_.push_back({v, pick_color(ctx, v)});
    }
  }

  void visit(htm::ThreadCtx& ctx, std::size_t count) {
    take_tail(count);
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
            next_.push_back(static_cast<Vertex>(v));
          }
        },
        core::OperatorId::kColorAssign);
  }

  // The worker RNG is durable too: coin flips after a restore must replay
  // the original draws. coins_ is only live while a staged transaction is
  // in flight.
  void durable(util::BlobIo& io) {
    io(rng_);
    FrontierWorker::durable(io);
  }

 private:
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

  ColorState& state_;
  util::Rng rng_;
  std::vector<bool> coins_;
};

}  // namespace

ColoringResult run_boman_coloring(htm::DesMachine& machine,
                                  const graph::Graph& graph,
                                  const ColoringOptions& options) {
  const Vertex n = graph.num_vertices();
  AAM_CHECK(n > 0);

  ColorState state;
  state.graph = &graph;
  state.color = machine.heap().alloc<std::uint32_t>(n, "coloring.color");
  core::FrontierLoop<ColorWorker> loop(machine, options, kScanChunk);
  state.executor = &loop.executor();
  state.worklist.resize(n);
  for (Vertex v = 0; v < n; ++v) state.worklist[v] = v;

  const util::Rng root(options.seed);
  ColoringResult result;
  loop.run(
      kBarrierCostNs,
      [&](int t) {
        return ColorWorker(state, loop.claim(),
                           root.fork(static_cast<std::uint64_t>(t) + 1));
      },
      [&](std::vector<Vertex>& next) {
        ++result.rounds;
        // The same vertex may be reported by several activities.
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        if (next.empty() || result.rounds >= kMaxRounds) return false;
        state.worklist = std::move(next);
        return true;
      },
      [&](auto&& io) {
        io(state.worklist, state.recolor_requests, result.rounds);
      });

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
