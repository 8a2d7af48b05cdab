#include "algorithms/st_connectivity.hpp"

#include <vector>

#include "algorithms/operators.hpp"
#include "core/executor_impl.hpp"
#include "core/frontier.hpp"
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
  std::span<std::uint32_t> color;
  core::ActivityExecutor* executor = nullptr;
  std::vector<Candidate> frontier;  // both waves interleaved
  bool connected = false;  // set by failure handlers; stops the traversal
  std::uint64_t colored = 1;
};

class StWorker : public core::FrontierWorker<StWorker, Candidate, Candidate> {
 public:
  StWorker(StState& state, const core::FrontierClaim& claim)
      : FrontierWorker(claim), state_(state) {}

  bool parked() const { return state_.connected; }  // handler fired: stop
  std::uint64_t claim_limit() const { return state_.frontier.size(); }

  void scan(htm::ThreadCtx& ctx, std::uint64_t begin, std::uint64_t end) {
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
  }

  // The Listing 6 operator (ops::st_visit), batched: emits kHitMark when
  // the two waves meet. FR & AS: the result always reaches the spawner.
  void visit(htm::ThreadCtx& ctx, std::size_t count) {
    take_tail(count);
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
            next_.push_back({static_cast<Vertex>(r & 0xffffffffu),
                             static_cast<std::uint32_t>(r >> 32)});
          }
        },
        core::OperatorId::kStVisit);
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

  StState& state_;
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
  state.color = machine.heap().alloc<std::uint32_t>(n, "stconn.color");
  core::FrontierLoop<StWorker> loop(machine, options, options.scan_chunk);
  state.executor = &loop.executor();

  state.color[options.s] = kGrey;
  state.color[options.t] = kGreen;
  state.colored = 2;
  state.frontier = {{options.s, kGrey}, {options.t, kGreen}};

  StConnResult result;
  loop.run(
      options.barrier_cost_ns,
      [&](int) { return StWorker(state, loop.claim()); },
      [&](std::vector<Candidate>& next) {
        ++result.levels;
        // Connected, or the waves are exhausted: not connected.
        if (state.connected || next.empty()) return false;
        state.frontier = std::move(next);
        return true;
      },
      [&](auto&& io) {
        io(state.frontier, state.connected, state.colored, result.levels);
      });

  result.connected = state.connected;
  result.total_time_ns = machine.makespan();
  result.vertices_colored = state.colored;
  result.stats = machine.stats();
  return result;
}

}  // namespace aam::algorithms
