#include "algorithms/boruvka.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/frontier.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;

struct MergeEdge {
  Vertex u = graph::kInvalidVertex;
  Vertex v = graph::kInvalidVertex;
  float weight = 0;
  std::uint64_t id = 0;  ///< deterministic tie-break
};

bool lighter(const MergeEdge& a, const MergeEdge& b) {
  if (a.weight != b.weight) return a.weight < b.weight;
  return a.id < b.id;
}

struct BoruvkaState {
  const graph::Graph* graph = nullptr;
  BoruvkaOptions options;
  std::span<Vertex> parent;  ///< union-find forest on the SimHeap
  core::ActivityExecutor* executor = nullptr;
  std::vector<MergeEdge> merges;  ///< this round's candidate merges
  core::ChunkCursor* scan_cursor = nullptr;
  core::ChunkCursor* merge_cursor = nullptr;
  bool scanning_phase = true;
  std::uint64_t failed_merges = 0;
  double total_weight = 0;
  std::uint64_t edges_in_forest = 0;
};

/// A component's lightest outgoing edge seen so far.
struct MinEdge {
  Vertex root;
  MergeEdge edge;
};

/// A worker's lightest outgoing edge per component, in first-appearance
/// order (which fixes the order of the round's merges, and so its
/// batches), with an index from root to position. The index is derived
/// state: checkpoints hold only the entries, and the index is rebuilt
/// from them.
class MinEdges {
 public:
  const std::vector<MinEdge>& entries() const { return entries_; }

  /// Keeps the lighter of `m` and the entry for its component.
  void upsert(const MinEdge& m) {
    const auto [it, fresh] = slot_.try_emplace(
        m.root, static_cast<std::uint32_t>(entries_.size()));
    if (fresh) {
      entries_.push_back(m);
    } else if (lighter(m.edge, entries_[it->second].edge)) {
      entries_[it->second].edge = m.edge;
    }
  }

  void clear() {
    entries_.clear();
    slot_.clear();
  }

  /// Checkpoint support. Rebuilding the index is what a restore needs;
  /// after a save it rebuilds the same index.
  void durable(util::BlobIo& io) {
    io(entries_);
    slot_.clear();
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      slot_.emplace(entries_[i].root, i);
    }
  }

 private:
  std::vector<MinEdge> entries_;
  std::unordered_map<Vertex, std::uint32_t> slot_;
};

class BoruvkaWorker : public htm::Worker {
 public:
  explicit BoruvkaWorker(BoruvkaState& state) : state_(state) {}

  MinEdges& min_edges() { return min_edges_; }

  bool next(htm::ThreadCtx& ctx) override {
    return state_.scanning_phase ? scan_step(ctx) : merge_step(ctx);
  }

  // Checkpoint support; batch_ is never live at a safe instant.
  void durable(util::BlobIo& io) { io(min_edges_); }

 private:
  // Phase A: find, per component, the minimum outgoing edge. Threads scan
  // vertex ranges and keep thread-local minima; the round hook reduces.
  bool scan_step(htm::ThreadCtx& ctx) {
    std::uint64_t begin = 0, end = 0;
    if (!state_.scan_cursor->claim(ctx, state_.graph->num_vertices(), 256,
                                   begin, end)) {
      return false;
    }
    const auto& g = *state_.graph;
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto v = static_cast<Vertex>(i);
      const Vertex rv = find_root(ctx, v);
      const auto nbrs = g.neighbors(v);
      const auto ws = g.weights(v);
      // v's lightest outgoing edge; one upsert per vertex, since all of
      // v's edges share its root.
      std::optional<MergeEdge> best;
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const Vertex w = nbrs[e];
        if (find_root(ctx, w) == rv) continue;  // internal edge
        const MergeEdge cand{v, w, ws[e],
                             static_cast<std::uint64_t>(
                                 std::min(v, w)) << 32 | std::max(v, w)};
        if (!best || lighter(cand, *best)) best = cand;
      }
      if (best) min_edges_.upsert({rv, *best});
    }
    return true;
  }

  // Root lookup with modelled per-hop loads (no path compression: keeps
  // the transactional variant's chains identical to what it re-reads).
  Vertex find_root(htm::ThreadCtx& ctx, Vertex v) const {
    Vertex r = v;
    while (true) {
      const Vertex p = ctx.load(state_.parent[r]);
      if (p == r) return r;
      r = p;
    }
  }

  // Phase B: merge transactions (Listing 5 shape). MF: a merge whose
  // components were already united by a concurrent activity does nothing
  // and reports the failure.
  bool merge_step(htm::ThreadCtx& ctx) {
    std::uint64_t begin = 0, end = 0;
    if (!state_.merge_cursor->claim(
            ctx, state_.merges.size(),
            static_cast<std::uint32_t>(state_.options.batch), begin, end)) {
      return false;
    }
    batch_.assign(state_.merges.begin() + static_cast<std::ptrdiff_t>(begin),
                  state_.merges.begin() + static_cast<std::ptrdiff_t>(end));
    // A merge that won emits its 1-based batch index; anything missing
    // from the results lost the race (MF) and is reported as failed.
    core::execute_batch(
        *state_.executor, ctx, batch_.size(),
        [this](auto& access, std::uint64_t i) {
          const MergeEdge& m = batch_[i];
          if (ops::uf_union(access, state_.parent, m.u, m.v)) {
            access.emit(i + 1);
          }
        },
        [this](htm::ThreadCtx&, std::span<const std::uint64_t> applied) {
          state_.failed_merges += batch_.size() - applied.size();
          for (std::uint64_t r : applied) {
            const MergeEdge& m = batch_[r - 1];
            state_.total_weight += m.weight;
            ++state_.edges_in_forest;
          }
        },
        core::OperatorId::kUfUnion);
    return true;
  }

  BoruvkaState& state_;
  MinEdges min_edges_;
  std::vector<MergeEdge> batch_;
};

}  // namespace

BoruvkaResult run_boruvka(htm::DesMachine& machine, const graph::Graph& graph,
                          const BoruvkaOptions& options) {
  AAM_CHECK_MSG(graph.has_weights(), "Boruvka needs a weighted graph");
  const Vertex n = graph.num_vertices();
  AAM_CHECK(n > 0);

  BoruvkaState state;
  state.graph = &graph;
  state.options = options;
  state.parent = machine.heap().alloc<Vertex>(n, "boruvka.parent");
  for (Vertex v = 0; v < n; ++v) state.parent[v] = v;
  core::RoundRunner<BoruvkaWorker> runner(machine, options);
  state.executor = &runner.executor();
  core::ChunkCursor scan_cursor(machine.heap());
  core::ChunkCursor merge_cursor(machine.heap());
  state.scan_cursor = &scan_cursor;
  state.merge_cursor = &merge_cursor;

  BoruvkaResult result;
  std::uint64_t merges_before_round = 0;
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> best_slot(n, kNoSlot);
  runner.run(
      options.barrier_cost_ns,
      [&](int) { return BoruvkaWorker(state); },
      [&] {
        if (state.scanning_phase) {
          // Reduce the per-thread minima into one candidate edge per
          // component, in first-appearance order over the workers in
          // worker order. best_slot maps a root to its merge and is all
          // kNoSlot again once the round's merges are formed.
          state.merges.clear();
          std::vector<Vertex> roots;
          for (auto& w : runner.workers()) {
            for (const MinEdge& m : w.min_edges().entries()) {
              std::uint32_t& slot = best_slot[m.root];
              if (slot == kNoSlot) {
                slot = static_cast<std::uint32_t>(state.merges.size());
                state.merges.push_back(m.edge);
                roots.push_back(m.root);
              } else if (lighter(m.edge, state.merges[slot])) {
                state.merges[slot] = m.edge;
              }
            }
            w.min_edges().clear();
          }
          for (const Vertex r : roots) best_slot[r] = kNoSlot;
          if (state.merges.empty()) return false;  // forest complete
          state.scanning_phase = false;
          merges_before_round = state.edges_in_forest;
          merge_cursor.reset_direct();
          return true;
        }
        // Merge phase finished: back to scanning, unless nothing merged
        // (then every candidate failed => the remaining candidates were
        // stale and the forest is already maximal) or the round budget ran
        // out.
        ++result.rounds;
        const bool progressed = state.edges_in_forest > merges_before_round;
        if (!progressed || result.rounds >= options.max_rounds) return false;
        state.scanning_phase = true;
        scan_cursor.reset_direct();
        return true;
      },
      [&](auto&& io) {
        io(state.merges, state.scanning_phase, state.failed_merges,
           state.total_weight, state.edges_in_forest, result.rounds,
           merges_before_round);
      });

  result.total_weight = state.total_weight;
  result.edges_in_forest = state.edges_in_forest;
  result.failed_merges = state.failed_merges;
  result.total_time_ns = machine.makespan();
  result.stats = machine.stats();
  return result;
}

double mst_reference_weight(const graph::Graph& graph) {
  struct Edge {
    Vertex u, v;
    float w;
    std::uint64_t id;
  };
  std::vector<Edge> edges;
  for (Vertex u = 0; u < graph.num_vertices(); ++u) {
    const auto nbrs = graph.neighbors(u);
    const auto ws = graph.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) {
        edges.push_back({u, nbrs[i], ws[i],
                         static_cast<std::uint64_t>(u) << 32 | nbrs[i]});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.w != b.w) return a.w < b.w;
    return a.id < b.id;
  });
  std::vector<Vertex> parent(graph.num_vertices());
  std::iota(parent.begin(), parent.end(), Vertex{0});
  auto find = [&](Vertex v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  double total = 0;
  for (const Edge& e : edges) {
    const Vertex ru = find(e.u);
    const Vertex rv = find(e.v);
    if (ru == rv) continue;
    parent[std::max(ru, rv)] = std::min(ru, rv);
    total += e.w;
  }
  return total;
}

}  // namespace aam::algorithms
