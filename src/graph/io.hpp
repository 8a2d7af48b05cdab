#pragma once

// Edge-list text I/O in the SNAP format: one "u v" pair per line (further
// columns, such as SNAP weights or timestamps, are ignored), lines starting
// with '#' are comments. This is the drop-in path for running the
// Table 1 experiments on the actual SNAP datasets when they are available
// (the default harness uses the synthetic analogs from analogs.hpp).

#include <string>

#include "graph/csr.hpp"

namespace aam::graph {

struct LoadOptions {
  bool undirected = true;  ///< mirror every edge (SNAP lists one direction)
  bool zero_based = false; ///< ids are already 0-based (else compacted)
};

/// Reads an edge list; vertex ids are compacted to a dense [0, n) range
/// unless `zero_based` and the max id defines n. Aborts with a `path:line`
/// diagnostic on a line whose first two fields are not unsigned integers,
/// or on a `zero_based` id that does not fit Vertex.
Graph load_edge_list(const std::string& path, const LoadOptions& options = {});

/// Writes "u v" per line plus a header comment.
void save_edge_list(const Graph& g, const std::string& path);

}  // namespace aam::graph
