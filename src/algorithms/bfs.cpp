#include "algorithms/bfs.hpp"

#include <algorithm>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/frontier.hpp"
#include "graph/gstats.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;
using graph::kInvalidVertex;

constexpr int kScanChunk = 512;  // frontier *edges* claimed per work unit

struct Candidate {
  Vertex vertex;
  Vertex parent;
};

// Shared state of one BFS execution.
struct BfsState {
  const graph::Graph* graph = nullptr;

  // On the SimHeap: the vertex state touched through the executor.
  std::span<Vertex> parent;   ///< kInvalidVertex = unvisited
  core::ActivityExecutor* executor = nullptr;

  // Host-side frontier management (runtime metadata, not simulated data).
  std::vector<Vertex> frontier;
  // Edge-balanced work division: prefix[i] = edges of frontier[0..i); a
  // work unit is a contiguous *edge* range, so a high-degree hub's
  // adjacency is scanned by many threads (as in the Graph500 reference).
  std::vector<std::uint64_t> prefix;

  std::uint64_t edges_scanned = 0;

  void build_prefix(const graph::Graph& g) {
    prefix.resize(frontier.size() + 1);
    prefix[0] = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      prefix[i + 1] = prefix[i] + g.degree(frontier[i]);
    }
  }
};

class BfsWorker : public core::FrontierWorker<BfsWorker, Candidate, Vertex> {
 public:
  BfsWorker(BfsState& state, const core::FrontierClaim& claim)
      : FrontierWorker(claim), state_(state) {}

  std::uint64_t claim_limit() const { return state_.prefix.back(); }

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

  // One coarse activity visits `count` candidates (Listing 4/8), popped
  // from the back. FF & MF: a candidate whose vertex got visited meanwhile
  // is silently dropped — that is an algorithm-level May-Fail, not a
  // hardware abort. The §4.2 runtime optimization re-checks visited with a
  // plain load right before handing the batch to the executor, so stale
  // duplicates never enter a transactional read set.
  void visit(htm::ThreadCtx& ctx, std::size_t count) {
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
            next_.push_back(static_cast<Vertex>(v));
          }
        },
        core::OperatorId::kBfsVisit);
  }

 private:
  BfsState& state_;
};

}  // namespace

BfsResult run_bfs(htm::DesMachine& machine, const graph::Graph& graph,
                  const BfsOptions& options) {
  AAM_CHECK(options.root < graph.num_vertices());

  const Vertex n = graph.num_vertices();
  BfsState state;
  state.graph = &graph;
  state.parent = machine.heap().alloc<Vertex>(n, "bfs.parent");
  core::FrontierLoop<BfsWorker> loop(machine, options, kScanChunk);
  state.executor = &loop.executor();

  for (Vertex v = 0; v < n; ++v) state.parent[v] = kInvalidVertex;
  state.parent[options.root] = options.root;
  state.frontier = {options.root};
  state.build_prefix(graph);

  BfsResult result;
  double level_start = 0.0;
  loop.run(
      kBfsBarrierCostNs,
      [&](int) { return BfsWorker(state, loop.claim()); },
      [&](std::vector<Vertex>& next) {
        const double now = machine.makespan();
        result.level_times_ns.push_back(now - level_start);
        if (next.empty()) return false;  // traversal complete
        result.vertices_visited += next.size();
        state.frontier = std::move(next);
        state.build_prefix(graph);
        level_start = now + kBfsBarrierCostNs;
        return true;
      },
      [&](auto&& io) {
        io(state.frontier, state.prefix, state.edges_scanned,
           result.level_times_ns, result.vertices_visited, level_start);
      });

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
    // The parent edge must exist (rows are sorted, so a hub parent costs
    // a binary search, not a scan of its row)...
    const Vertex p = parent[v];
    if (p >= graph.num_vertices()) return false;
    const auto nbrs = graph.neighbors(p);
    if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) return false;
    // ...and the parent must sit exactly one BFS level above.
    if (levels[p] + 1 != levels[v]) return false;
  }
  return true;
}

}  // namespace aam::algorithms
