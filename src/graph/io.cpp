#include "graph/io.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "util/check.hpp"

namespace aam::graph {

namespace {

constexpr std::string_view kBlanks = " \t\r";

[[noreturn]] void parse_error(const std::string& path, std::uint64_t line_no,
                              const std::string& what) {
  const std::string msg = path + ":" + std::to_string(line_no) + ": " + what;
  util::check_failed("well-formed edge list", __FILE__, __LINE__, msg.c_str());
}

/// Parses the whitespace-separated field of `line` starting at or after
/// `pos` as an unsigned decimal integer and moves `pos` past it. False if
/// the field is missing or is not one (a sign, a fraction, trailing junk,
/// or a value above 2^64 - 1).
bool parse_id(std::string_view line, std::size_t& pos, std::uint64_t& out) {
  pos = line.find_first_not_of(kBlanks, pos);
  if (pos == std::string_view::npos) return false;
  const std::size_t end =
      std::min(line.find_first_of(kBlanks, pos), line.size());
  const char* last = line.data() + end;
  const auto [ptr, ec] = std::from_chars(line.data() + pos, last, out);
  pos = end;
  return ec == std::errc{} && ptr == last;
}

}  // namespace

Graph load_edge_list(const std::string& path, const LoadOptions& options) {
  std::ifstream in(path);
  AAM_CHECK_MSG(in.good(), "cannot open edge list file");
  EdgeList edges;
  std::unordered_map<std::uint64_t, Vertex> remap;
  Vertex next_id = 0;
  std::uint64_t max_id = 0;
  std::uint64_t line_no = 0;

  auto intern = [&](std::uint64_t raw) -> Vertex {
    if (options.zero_based) {
      // max_id + 1 becomes the vertex count, so it must fit Vertex too.
      if (raw >= std::numeric_limits<Vertex>::max()) {
        parse_error(path, line_no,
                    "vertex id " + std::to_string(raw) +
                        " does not fit the 32-bit vertex type");
      }
      max_id = std::max(max_id, raw);
      return static_cast<Vertex>(raw);
    }
    const auto [it, inserted] = remap.try_emplace(raw, next_id);
    if (inserted) ++next_id;
    return it->second;
  };

  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(kBlanks);
    if (first == std::string::npos || line[first] == '#') continue;
    std::size_t pos = first;
    std::uint64_t u = 0, v = 0;
    // Columns after the first two (SNAP weights, timestamps) are ignored.
    if (!parse_id(line, pos, u) || !parse_id(line, pos, v)) {
      parse_error(path, line_no,
                  "expected two unsigned vertex ids, got '" + line + "'");
    }
    edges.emplace_back(intern(u), intern(v));
  }
  const Vertex n = options.zero_based ? static_cast<Vertex>(max_id + 1)
                                      : next_id;
  return Graph::from_edges(n, edges, options.undirected);
}

void save_edge_list(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  AAM_CHECK_MSG(out.good(), "cannot open edge list output file");
  out << "# vertices " << g.num_vertices() << " directed-edges "
      << g.num_edges() << "\n";
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v : g.neighbors(u)) out << u << ' ' << v << '\n';
  }
}

}  // namespace aam::graph
