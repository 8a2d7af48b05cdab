#pragma once

// Boman et al. distributed graph coloring (§3.3.5), FR & MF.
//
// The heuristic proceeds in rounds. Every vertex in the round's worklist
// picks a tentative color (smallest not used by its neighbors, read from a
// possibly-stale snapshot) and runs the Listing 7 operator: assign the
// color, then check the neighborhood transactionally. If a neighbor holds
// the same color, one of the two — chosen pseudo-randomly — must recolor:
// its id is Fire-and-Returned to the spawner, whose failure handler puts
// it on the next round's worklist. Rounds repeat until conflict-free.

#include <cstdint>
#include <span>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

struct ColoringOptions : core::ExecConfig {
  ColoringOptions() : ExecConfig{.batch = 8} {}  ///< default M: 8 operators
  std::uint64_t seed = 1;
};

struct ColoringResult {
  std::vector<std::uint32_t> color;  ///< 1-based; 0 = uncolored (never final)
  std::uint32_t colors_used = 0;
  int rounds = 0;
  std::uint64_t recolor_requests = 0;
  double total_time_ns = 0;
  htm::HtmStats stats;
};

ColoringResult run_boman_coloring(htm::DesMachine& machine,
                                  const graph::Graph& graph,
                                  const ColoringOptions& options);

/// Reusable scratch of first_fit_color(): seen[c] == stamp marks color c
/// as taken in the current call, so no call clears the array.
struct FirstFitScratch {
  std::vector<std::uint32_t> seen;
  std::uint32_t stamp = 0;
};

/// Smallest color >= 1 not in `colors` (0, "uncolored", is ignored). Only
/// colors up to colors.size() + 1 can block the answer, so the work is
/// O(colors.size()) with no sort.
std::uint32_t first_fit_color(std::span<const std::uint32_t> colors,
                              FirstFitScratch& scratch);

/// True iff no edge connects two equal non-zero colors and all vertices
/// are colored.
bool validate_coloring(const graph::Graph& graph,
                       const std::vector<std::uint32_t>& color);

}  // namespace aam::algorithms
