#include "algorithms/st_connectivity.hpp"

#include <memory>
#include <vector>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/worklist.hpp"
#include "htm/resilience.hpp"
#include "util/blob.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;

constexpr std::uint32_t kWhite = 0;
constexpr std::uint32_t kGrey = 1;   // the s-wave
constexpr std::uint32_t kGreen = 2;  // the t-wave

struct Candidate {
  Vertex vertex;
  std::uint32_t color;
};

struct StState {
  const graph::Graph* graph = nullptr;
  StConnOptions options;
  std::span<std::uint32_t> color;
  core::ActivityExecutor* executor = nullptr;
  std::vector<Candidate> frontier;  // both waves interleaved
  core::ChunkCursor* cursor = nullptr;
  bool connected = false;  // set by failure handlers; stops the traversal
  std::uint64_t colored = 1;
};

class StWorker : public htm::Worker {
 public:
  explicit StWorker(StState& state) : state_(state) {}

  void start_level() { done_scanning_ = false; }
  std::vector<Candidate>& next_frontier() { return next_frontier_; }

  bool next(htm::ThreadCtx& ctx) override {
    if (state_.connected) return false;  // failure handler fired: stop
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
        for (std::uint64_t i = begin; i < end; ++i) {
          const Candidate c = state_.frontier[i];
          for (Vertex w : state_.graph->neighbors(c.vertex)) {
            // Pre-check: already-owned vertices of our own wave are skipped;
            // other-wave colors still go through the operator, which is
            // where connectivity is detected.
            if (ctx.load(state_.color[w]) == c.color) continue;
            pending_.push_back({w, c.color});
          }
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

  // Checkpoint support; batch_ is never live at a safe instant.
  void save(util::BlobWriter& w) const {
    w.put_vector(pending_);
    w.put_vector(next_frontier_);
    w.put<std::uint8_t>(done_scanning_ ? 1 : 0);
  }
  void restore(util::BlobReader& r) {
    pending_ = r.get_vector<Candidate>();
    next_frontier_ = r.get_vector<Candidate>();
    done_scanning_ = r.get<std::uint8_t>() != 0;
    batch_.clear();
  }

 private:
  // FR results are packed into the executor's 64-bit emissions: a claimed
  // vertex carries its wave color in the upper half; the distinguished
  // kHitMark value reports "the other wave owns it" (bit 63 is never set
  // by a claim because colors are tiny).
  static constexpr std::uint64_t kHitMark = std::uint64_t{1} << 63;
  static std::uint64_t pack(const Candidate& c) {
    return (static_cast<std::uint64_t>(c.color) << 32) | c.vertex;
  }

  // The Listing 6 operator (ops::st_visit), batched: emits kHitMark when
  // the two waves meet. FR & AS: the result always reaches the spawner.
  void visit(htm::ThreadCtx& ctx, std::size_t count) {
    batch_.assign(pending_.end() - static_cast<std::ptrdiff_t>(count),
                  pending_.end());
    pending_.resize(pending_.size() - count);
    core::execute_batch(
        *state_.executor, ctx, batch_.size(),
        [this](auto& access, std::uint64_t i) {
          const Candidate& c = batch_[i];
          ops::st_visit(access, state_.color, c.vertex, c.color, kWhite,
                        kHitMark, pack(c));
        },
        [this](htm::ThreadCtx&, std::span<const std::uint64_t> results) {
          // Spawner-side failure handler (§3.3.4): terminate on contact.
          for (std::uint64_t r : results) {
            if (r == kHitMark) {
              state_.connected = true;
              continue;
            }
            ++state_.colored;
            next_frontier_.push_back(
                {static_cast<Vertex>(r & 0xffffffffu),
                 static_cast<std::uint32_t>(r >> 32)});
          }
        },
        core::OperatorId::kStVisit);
  }

  StState& state_;
  std::vector<Candidate> pending_;
  std::vector<Candidate> batch_;
  std::vector<Candidate> next_frontier_;
  bool done_scanning_ = false;
};

}  // namespace

StConnResult run_st_connectivity(htm::DesMachine& machine,
                                 const graph::Graph& graph,
                                 const StConnOptions& options) {
  const Vertex n = graph.num_vertices();
  AAM_CHECK(options.s < n && options.t < n);
  AAM_CHECK(options.s != options.t);

  StState state;
  state.graph = &graph;
  state.options = options;
  state.color = machine.heap().alloc<std::uint32_t>(n, "stconn.color");
  auto executor = core::make_executor(machine, options);
  state.executor = executor.get();
  core::ChunkCursor cursor(machine.heap());
  state.cursor = &cursor;

  state.color[options.s] = kGrey;
  state.color[options.t] = kGreen;
  state.colored = 2;
  state.frontier = {{options.s, kGrey}, {options.t, kGreen}};

  machine.reset_clocks(0.0, /*clear_stats=*/true);
  std::vector<std::unique_ptr<StWorker>> workers;
  for (int t = 0; t < machine.num_threads(); ++t) {
    workers.push_back(std::make_unique<StWorker>(state));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  StConnResult result;
  machine.set_quiescence_hook([&](htm::DesMachine& m) {
    ++result.levels;
    if (state.connected) return false;
    std::vector<Candidate> next;
    for (auto& w : workers) {
      next.insert(next.end(), w->next_frontier().begin(),
                  w->next_frontier().end());
      w->next_frontier().clear();
    }
    if (next.empty()) return false;  // waves exhausted: not connected
    state.frontier = std::move(next);
    cursor.reset_direct();
    for (auto& w : workers) w->start_level();
    m.barrier_release(options.barrier_cost_ns);
    return true;
  });

  htm::ScopedHostState ckpt(
      machine.recovery_client(),
      {.save =
           [&](std::vector<std::uint8_t>& out) {
             util::BlobWriter w;
             w.put_vector(state.frontier);
             w.put<std::uint8_t>(state.connected ? 1 : 0);
             w.put<std::uint64_t>(state.colored);
             w.put<std::int32_t>(result.levels);
             executor->save_state(w);
             for (auto& wk : workers) wk->save(w);
             out = w.take();
           },
       .restore =
           [&](const std::uint8_t* data, std::size_t len) {
             util::BlobReader r(data, len);
             state.frontier = r.get_vector<Candidate>();
             state.connected = r.get<std::uint8_t>() != 0;
             state.colored = r.get<std::uint64_t>();
             result.levels = r.get<std::int32_t>();
             executor->restore_state(r);
             for (auto& wk : workers) wk->restore(r);
           }});

  machine.run();
  machine.set_quiescence_hook(nullptr);

  result.connected = state.connected;
  result.total_time_ns = machine.makespan();
  result.vertices_colored = state.colored;
  result.stats = machine.stats();
  return result;
}

}  // namespace aam::algorithms
