#include "algorithms/bfs.hpp"

#include <algorithm>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/worklist.hpp"
#include "graph/gstats.hpp"
#include "htm/resilience.hpp"
#include "util/blob.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;
using graph::kInvalidVertex;

struct Candidate {
  Vertex vertex;
  Vertex parent;
};

// Shared state of one BFS execution.
struct BfsState {
  const graph::Graph* graph = nullptr;
  BfsOptions options;

  // On the SimHeap: the vertex state touched through the executor.
  std::span<Vertex> parent;   ///< kInvalidVertex = unvisited
  core::ActivityExecutor* executor = nullptr;

  // Host-side frontier management (runtime metadata, not simulated data).
  std::vector<Vertex> frontier;
  // Edge-balanced work division: prefix[i] = edges of frontier[0..i); a
  // work unit is a contiguous *edge* range, so a high-degree hub's
  // adjacency is scanned by many threads (as in the Graph500 reference).
  std::vector<std::uint64_t> prefix;
  core::ChunkCursor* cursor = nullptr;

  std::uint64_t edges_scanned = 0;

  void build_prefix(const graph::Graph& g) {
    prefix.resize(frontier.size() + 1);
    prefix[0] = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      prefix[i + 1] = prefix[i] + g.degree(frontier[i]);
    }
  }
};

class BfsWorker : public htm::Worker {
 public:
  BfsWorker(BfsState& state) : state_(state) {}

  void start_level() { done_scanning_ = false; }
  std::vector<Vertex>& next_frontier() { return next_frontier_; }

  bool next(htm::ThreadCtx& ctx) override {
    const int m = state_.options.batch;
    // A full batch of unvisited candidates: visit them.
    if (static_cast<int>(pending_.size()) >= m) {
      visit_pending(ctx, static_cast<std::size_t>(m));
      return true;
    }
    if (!done_scanning_) {
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      if (state_.cursor->claim(ctx, state_.prefix.back(),
                               static_cast<std::uint32_t>(
                                   state_.options.scan_chunk),
                               begin, end)) {
        scan(ctx, begin, end);
        return true;
      }
      done_scanning_ = true;
    }
    if (!pending_.empty()) {
      visit_pending(ctx, pending_.size());
      return true;
    }
    return false;  // level finished for this thread
  }

  // Checkpoint support: everything that survives across dispatches.
  // batch_ is only live while a staged transaction is in flight, which
  // checkpoint-safe instants exclude.
  void save(util::BlobWriter& w) const {
    w.put_vector(pending_);
    w.put_vector(next_frontier_);
    w.put<std::uint8_t>(done_scanning_ ? 1 : 0);
  }
  void restore(util::BlobReader& r) {
    pending_ = r.get_vector<Candidate>();
    next_frontier_ = r.get_vector<Vertex>();
    done_scanning_ = r.get<std::uint8_t>() != 0;
    batch_.clear();
  }

 private:
  // Expands the frontier *edge* range [begin, end): per-edge scan cost
  // plus the visited pre-check on each neighbor.
  void scan(htm::ThreadCtx& ctx, std::uint64_t begin, std::uint64_t end) {
    const auto& g = *state_.graph;
    const auto& prefix = state_.prefix;
    // First frontier entry whose edge range intersects [begin, end).
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(prefix.begin(), prefix.end(), begin) -
        prefix.begin() - 1);
    std::uint64_t edges = 0;
    for (; i < state_.frontier.size() && prefix[i] < end; ++i) {
      const Vertex u = state_.frontier[i];
      const auto nbrs = g.neighbors(u);
      const std::uint64_t lo = begin > prefix[i] ? begin - prefix[i] : 0;
      const std::uint64_t hi = std::min<std::uint64_t>(end - prefix[i],
                                                       nbrs.size());
      for (std::uint64_t e = lo; e < hi; ++e) {
        const Vertex w = nbrs[e];
        ++edges;
        // Pre-check (plain load): skip already-visited neighbors.
        if (ctx.load(state_.parent[w]) != kInvalidVertex) continue;
        pending_.push_back({w, u});
      }
    }
    state_.edges_scanned += edges;
  }

  // One coarse activity visits `count` candidates (Listing 4/8). FF & MF:
  // a candidate whose vertex got visited meanwhile is silently dropped —
  // that is an algorithm-level May-Fail, not a hardware abort. The §4.2
  // runtime optimization re-checks visited with a plain load right before
  // handing the batch to the executor, so stale duplicates never enter a
  // transactional read set.
  void visit_pending(htm::ThreadCtx& ctx, std::size_t count) {
    batch_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const Candidate c = pending_.back();
      pending_.pop_back();
      if (ctx.load(state_.parent[c.vertex]) != kInvalidVertex) continue;
      batch_.push_back(c);
    }
    if (batch_.empty()) return;
    core::execute_batch(
        *state_.executor, ctx, batch_.size(),
        [this](auto& access, std::uint64_t i) {
          const Candidate& c = batch_[i];
          if (ops::bfs_visit(access, state_.parent, c.vertex, c.parent)) {
            access.emit(c.vertex);
          }
        },
        [this](htm::ThreadCtx&, std::span<const std::uint64_t> claimed) {
          for (std::uint64_t v : claimed) {
            next_frontier_.push_back(static_cast<Vertex>(v));
          }
        },
        core::OperatorId::kBfsVisit);
  }

  BfsState& state_;
  std::vector<Candidate> pending_;
  std::vector<Candidate> batch_;
  std::vector<Vertex> next_frontier_;
  bool done_scanning_ = false;
};

}  // namespace

BfsResult run_bfs(htm::DesMachine& machine, const graph::Graph& graph,
                  const BfsOptions& options) {
  AAM_CHECK(options.root < graph.num_vertices());
  AAM_CHECK(options.batch >= 1 && options.scan_chunk >= 1);

  const Vertex n = graph.num_vertices();
  BfsState state;
  state.graph = &graph;
  state.options = options;
  state.parent = machine.heap().alloc<Vertex>(n, "bfs.parent");
  auto executor = core::make_executor(machine, options);
  state.executor = executor.get();
  core::ChunkCursor cursor(machine.heap());
  state.cursor = &cursor;

  for (Vertex v = 0; v < n; ++v) state.parent[v] = kInvalidVertex;
  state.parent[options.root] = options.root;
  state.frontier = {options.root};
  state.build_prefix(graph);

  machine.reset_clocks(0.0, /*clear_stats=*/true);

  const int threads = machine.num_threads();
  std::vector<std::unique_ptr<BfsWorker>> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.push_back(std::make_unique<BfsWorker>(state));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  BfsResult result;
  double level_start = 0.0;
  for (auto& w : workers) w->start_level();

  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    const double now = m.makespan();
    result.level_times_ns.push_back(now - level_start);

    // Gather the next frontier from all workers (deterministic order).
    std::vector<Vertex> next;
    for (auto& w : workers) {
      auto& nf = w->next_frontier();
      next.insert(next.end(), nf.begin(), nf.end());
      nf.clear();
    }
    if (next.empty()) return false;  // traversal complete

    result.vertices_visited += next.size();
    state.frontier = std::move(next);
    state.build_prefix(*state.graph);
    cursor.reset_direct();
    for (auto& w : workers) w->start_level();
    level_start = now + options.barrier_cost_ns;
    m.barrier_release(options.barrier_cost_ns);
    return true;
  });

  // Crash recovery (src/recovery/): snapshot the host-side driver state
  // alongside the engine — frontier management, per-worker queues, the
  // executor's control state, and the result fields the quiescence hook
  // mutates. No-op when no recovery client is installed.
  htm::ScopedHostState ckpt(
      machine.recovery_client(),
      {.save =
           [&](std::vector<std::uint8_t>& out) {
             util::BlobWriter w;
             w.put_vector(state.frontier);
             w.put_vector(state.prefix);
             w.put<std::uint64_t>(state.edges_scanned);
             w.put_vector(result.level_times_ns);
             w.put<std::uint64_t>(result.vertices_visited);
             w.put<double>(level_start);
             executor->save_state(w);
             for (auto& wk : workers) wk->save(w);
             out = w.take();
           },
       .restore =
           [&](const std::uint8_t* data, std::size_t len) {
             util::BlobReader r(data, len);
             state.frontier = r.get_vector<Vertex>();
             state.prefix = r.get_vector<std::uint64_t>();
             state.edges_scanned = r.get<std::uint64_t>();
             result.level_times_ns = r.get_vector<double>();
             result.vertices_visited = r.get<std::uint64_t>();
             level_start = r.get<double>();
             executor->restore_state(r);
             for (auto& wk : workers) wk->restore(r);
           }});

  machine.run();
  machine.set_quiescence_hook(nullptr);

  result.vertices_visited += 1;  // the root
  result.total_time_ns = machine.makespan();
  result.edges_scanned = state.edges_scanned;
  result.stats = machine.stats();
  result.parent.assign(state.parent.begin(), state.parent.end());
  return result;
}

bool validate_bfs_tree(const graph::Graph& graph, graph::Vertex root,
                       const std::vector<graph::Vertex>& parent) {
  if (parent.size() != graph.num_vertices()) return false;
  if (parent[root] != root) return false;

  const auto levels = graph::bfs_levels(graph, root);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const bool reachable = levels[v] != graph::kInvalidLevel;
    const bool visited = parent[v] != kInvalidVertex;
    if (reachable != visited) return false;
    if (!visited || v == root) continue;
    // The parent edge must exist...
    const Vertex p = parent[v];
    if (p >= graph.num_vertices()) return false;
    const auto nbrs = graph.neighbors(p);
    if (std::find(nbrs.begin(), nbrs.end(), v) == nbrs.end()) return false;
    // ...and the parent must sit exactly one BFS level above.
    if (levels[p] + 1 != levels[v]) return false;
  }
  return true;
}

}  // namespace aam::algorithms
