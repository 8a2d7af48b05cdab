#include "algorithms/pagerank_dist.hpp"

#include <bit>

#include "core/distributed.hpp"
#include "htm/resilience.hpp"
#include "util/blob.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

using graph::Vertex;

const char* to_string(DistPrMode mode) {
  return mode == DistPrMode::kAam ? "AAM" : "PBGL-like";
}

namespace {

constexpr double kPbglItemOverheadNs = 300.0;  // generic AM framework cost/item
constexpr double kBarrierCostNs = 3000.0;      // per-iteration global barrier

std::uint64_t pack(Vertex w, float contribution) {
  return (static_cast<std::uint64_t>(w) << 32) |
         std::bit_cast<std::uint32_t>(contribution);
}

Vertex unpack_vertex(std::uint64_t item) {
  return static_cast<Vertex>(item >> 32);
}

float unpack_contribution(std::uint64_t item) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(item));
}

// Per-thread pusher: walks its slice of the node's vertices and spawns one
// AAM item per outgoing edge, then helps drain incoming batches.
class PrWorker : public htm::Worker {
 public:
  // `old_rank` is indirect: the iteration hook swaps the rank arrays, and
  // every worker must observe the swap.
  PrWorker(core::DistributedRuntime& rt, const graph::Graph& graph,
           const graph::Block1D& part, std::span<double>* old_rank,
           double damping, Vertex begin, Vertex end)
      : rt_(rt), graph_(graph), part_(part), old_rank_(old_rank),
        damping_(damping), slice_begin_(begin), slice_end_(end) {}

  void start_iteration() {
    pos_ = slice_begin_;
    flushed_ = false;
  }

  bool next(htm::ThreadCtx& ctx) override {
    if (rt_.progress(ctx)) return true;
    if (pos_ < slice_end_) {
      produce_chunk(ctx);
      return true;
    }
    if (!flushed_) {
      flushed_ = true;
      rt_.flush(ctx);
      return true;
    }
    return false;
  }

  // Checkpoint support: the production cursor and flush flag are the
  // worker's only durable state (slice bounds are reconstructed).
  void durable(util::BlobIo& io) { io(pos_, flushed_); }

 private:
  static constexpr Vertex kChunk = 16;

  void produce_chunk(htm::ThreadCtx& ctx) {
    const Vertex stop = std::min<Vertex>(pos_ + kChunk, slice_end_);
    for (; pos_ < stop; ++pos_) {
      const Vertex v = pos_;
      const auto nbrs = graph_.neighbors(v);
      if (nbrs.empty()) continue;
      // Reading the stale local rank: one modelled load per vertex.
      const double share = damping_ * ctx.load((*old_rank_)[v]) /
                           static_cast<double>(nbrs.size());
      for (Vertex w : nbrs) {
        rt_.spawn(ctx, part_.owner(w), pack(w, static_cast<float>(share)));
      }
    }
  }

  core::DistributedRuntime& rt_;
  const graph::Graph& graph_;
  const graph::Block1D& part_;
  std::span<double>* old_rank_;
  double damping_;
  Vertex slice_begin_;
  Vertex slice_end_;
  Vertex pos_ = 0;
  bool flushed_ = true;
};

}  // namespace

DistPrResult run_distributed_pagerank(net::Cluster& cluster,
                                      const graph::Graph& graph,
                                      const graph::Block1D& part,
                                      const DistPrOptions& options) {
  const Vertex n = graph.num_vertices();
  AAM_CHECK(n > 0);
  AAM_CHECK(part.num_vertices() == n);
  AAM_CHECK(part.num_nodes() == cluster.num_nodes());

  auto& machine = cluster.machine();
  auto old_rank = machine.heap().alloc<double>(n, "pagerank.rank");
  auto new_rank = machine.heap().alloc<double>(n, "pagerank.rank");
  const double base = (1.0 - options.damping) / static_cast<double>(n);
  for (Vertex v = 0; v < n; ++v) old_rank[v] = 1.0 / static_cast<double>(n);

  machine.reset_clocks();

  const bool pbgl = options.mode == DistPrMode::kPbgl;
  core::DistributedRuntime rt(
      cluster, {.coalesce = pbgl ? std::min(options.coalesce, 4)
                                 : options.coalesce,
                .exec = {.batch = options.local_batch,
                         .mechanism = options.mechanism,
                         .recorder = options.recorder}});

  if (pbgl) {
    rt.set_operator_plain(
        [&](htm::ThreadCtx& ctx, std::uint64_t item) {
          ctx.fetch_add(new_rank[unpack_vertex(item)],
                        static_cast<double>(unpack_contribution(item)));
        },
        kPbglItemOverheadNs);
  } else {
    rt.set_operator(
        [&](auto& access, std::uint64_t item) {
          access.fetch_add(new_rank[unpack_vertex(item)],
                           static_cast<double>(unpack_contribution(item)));
        },
        core::OperatorId::kPagerankPush);
    // Receiver-side sharding by rank cache line (8 doubles per line):
    // same-node transactions become conflict-free (§4.2 optimization).
    rt.set_sharding([](std::uint64_t item) {
      return static_cast<std::uint32_t>(unpack_vertex(item) / 8);
    });
  }

  // One pusher per thread; each covers a slice of its node's partition.
  std::vector<std::unique_ptr<PrWorker>> workers;
  const int tpn = cluster.threads_per_node();
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    const Vertex lo = part.begin(node);
    const Vertex count = part.count(node);
    for (int t = 0; t < tpn; ++t) {
      const Vertex begin =
          lo + count * static_cast<Vertex>(t) / static_cast<Vertex>(tpn);
      const Vertex end =
          lo + count * static_cast<Vertex>(t + 1) / static_cast<Vertex>(tpn);
      workers.push_back(std::make_unique<PrWorker>(
          rt, graph, part, &old_rank, options.damping, begin, end));
      machine.set_worker(cluster.thread_of(node, t), workers.back().get());
    }
  }

  int iterations_left = options.iterations;
  auto begin_iteration = [&] {
    for (Vertex v = 0; v < n; ++v) new_rank[v] = base;
    for (auto& w : workers) w->start_iteration();
  };
  begin_iteration();

  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    AAM_CHECK_MSG(rt.drained(), "quiescence with undrained runtime");
    std::swap(old_rank, new_rank);
    if (--iterations_left == 0) return false;
    begin_iteration();
    m.barrier_release(kBarrierCostNs);
    return true;
  });

  // Checkpoint registration. The DistributedRuntime registered its own
  // state at construction; the driver contributes the iteration counter
  // and which heap allocation `old_rank` currently aliases (the hook's
  // std::swap runs after the pre-quiescence checkpoint, so the span
  // identities are durable host state). Worker cursors ride along.
  htm::ScopedHostState ckpt(
      machine.recovery_client(), [&](util::BlobIo& io) {
        bool old_is_first = old_rank.data() < new_rank.data();
        io(iterations_left, old_is_first);
        if ((old_rank.data() < new_rank.data()) != old_is_first) {
          std::swap(old_rank, new_rank);
        }
        for (auto& wk : workers) io(*wk);
      });

  machine.run();
  machine.set_quiescence_hook(nullptr);

  DistPrResult result;
  result.rank.assign(old_rank.begin(), old_rank.end());
  result.total_time_ns = machine.makespan();
  result.stats = machine.stats();
  result.net = cluster.stats();
  return result;
}

}  // namespace aam::algorithms
