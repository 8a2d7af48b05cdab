#pragma once

// ST connectivity (§3.3.4): are vertices s and t connected?
//
// Two BFS waves start concurrently from s ("grey") and t ("green"); every
// vertex starts "white". The operator (Listing 6) colors a white vertex
// with the wave's color; finding a vertex already holding the *other*
// wave's color proves connectivity — a Fire-and-Return result that makes
// the spawner's failure handler terminate the algorithm (FR & AS).

#include <cstdint>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

struct StConnOptions : core::ExecConfig {
  graph::Vertex s = 0;
  graph::Vertex t = 1;
  int scan_chunk = 64;
  double barrier_cost_ns = 400.0;
};

struct StConnResult {
  bool connected = false;
  double total_time_ns = 0;
  std::uint64_t vertices_colored = 0;
  int levels = 0;
  htm::HtmStats stats;
};

StConnResult run_st_connectivity(htm::DesMachine& machine,
                                 const graph::Graph& graph,
                                 const StConnOptions& options);

}  // namespace aam::algorithms
