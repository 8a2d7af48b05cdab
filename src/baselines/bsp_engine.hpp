#pragma once

// A Pregel/HAMA-like vertex-centric BSP engine (§6.1.2 comparison).
//
// Computation proceeds in global supersteps. In each superstep every
// active vertex runs the user compute function, reading the messages sent
// to it in the previous superstep and sending messages for the next one.
// A vertex votes to halt and is reactivated by incoming messages; the run
// ends when all vertices halted and no messages are in flight.
//
// The cost model charges what the paper blames for HAMA's performance
// (§6.1.2): a large per-superstep synchronization overhead (the Hadoop
// MapReduce barrier) — which multiplies with graph diameter, devastating
// road networks — plus per-message serialization and per-vertex dispatch
// costs. The engine itself is a faithful, reusable BSP implementation; its
// HAMA-calibrated cost constants make it the Table 1 / Fig 7 comparator.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::baselines {

class BspEngine {
 public:
  /// Per-superstep global synchronization cost. HAMA runs each superstep
  /// as a Hadoop-style job; this models tens of milliseconds.
  static constexpr double kSuperstepOverheadNs = 2.0e7;

  using Message = std::uint64_t;

  /// Context handed to the user compute function for one vertex.
  class VertexContext {
   public:
    VertexContext(graph::Vertex vertex, int superstep,
                  std::span<const Message> messages,
                  std::span<const graph::Vertex> neighbors,
                  std::vector<std::pair<graph::Vertex, Message>>* outbox)
        : vertex_(vertex), superstep_(superstep), messages_(messages),
          neighbors_(neighbors), outbox_(outbox) {}

    graph::Vertex vertex() const { return vertex_; }
    int superstep() const { return superstep_; }
    std::span<const Message> messages() const { return messages_; }
    std::span<const graph::Vertex> neighbors() const { return neighbors_; }

    /// Queue a message for `target`, delivered next superstep.
    void send(graph::Vertex target, Message msg) {
      outbox_->emplace_back(target, msg);
    }
    void send_to_neighbors(Message msg) {
      for (graph::Vertex w : neighbors_) send(w, msg);
    }
    /// Halt until a message arrives.
    void vote_to_halt() { halted_ = true; }
    bool halted() const { return halted_; }

   private:
    graph::Vertex vertex_ = 0;
    int superstep_ = 0;
    std::span<const Message> messages_;
    std::span<const graph::Vertex> neighbors_;
    std::vector<std::pair<graph::Vertex, Message>>* outbox_ = nullptr;
    bool halted_ = false;
  };

  using ComputeFn = std::function<void(VertexContext&)>;

  struct Result {
    int supersteps = 0;
    std::uint64_t messages_sent = 0;
    double total_time_ns = 0;
  };

  /// Runs the vertex program on all machine threads until convergence.
  static Result run(htm::DesMachine& machine, const graph::Graph& graph,
                    ComputeFn compute);
};

/// BFS as a BSP vertex program; returns the level array (host-side) and
/// fills `result` with engine statistics. The standard Pregel example.
std::vector<std::uint32_t> bsp_bfs(htm::DesMachine& machine,
                                   const graph::Graph& graph,
                                   graph::Vertex root,
                                   BspEngine::Result* result);

}  // namespace aam::baselines
