#include "util/golden.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace aam::util {

namespace {

/// Line-by-line diff: prints the first divergent lines of each side.
void print_drift(const std::string& expected, const std::string& actual) {
  std::istringstream exp(expected);
  std::istringstream act(actual);
  std::string eline;
  std::string aline;
  std::size_t lineno = 0;
  for (;;) {
    const bool has_e = static_cast<bool>(std::getline(exp, eline));
    const bool has_a = static_cast<bool>(std::getline(act, aline));
    ++lineno;
    if (!has_e && !has_a) break;
    if (has_e && has_a && eline == aline) continue;
    std::fprintf(stderr, "line %zu:\n", lineno);
    if (has_e) std::fprintf(stderr, "  -golden:  %s\n", eline.c_str());
    if (has_a) std::fprintf(stderr, "  +current: %s\n", aline.c_str());
  }
}

}  // namespace

int run_golden(const GoldenSpec& spec, const std::string& current,
               const std::string& golden_path,
               const std::string& write_golden_path) {
  if (!write_golden_path.empty()) {
    std::ofstream out(write_golden_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", spec.tool,
                   write_golden_path.c_str());
      return 1;
    }
    out << current;
    std::printf("wrote %s (%zu bytes)\n", write_golden_path.c_str(),
                current.size());
    return 0;
  }
  std::ifstream in(golden_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read golden %s\n", spec.tool,
                 golden_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string committed = buf.str();
  if (committed != current) {
    std::fprintf(stderr,
                 "%s: %s drifted from %s\n"
                 "If the change is intentional, regenerate with:\n"
                 "  ./build/tools/%s %s--write-golden %s\n",
                 spec.tool, spec.what.c_str(), golden_path.c_str(), spec.tool,
                 spec.regen_flags.c_str(), golden_path.c_str());
    print_drift(committed, current);
    return 1;
  }
  std::printf("%s %s %s\n", spec.what.c_str(), spec.match_verb,
              golden_path.c_str());
  return 0;
}

}  // namespace aam::util
