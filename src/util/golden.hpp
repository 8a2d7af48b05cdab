#pragma once

// The --golden / --write-golden mode of the CLI tools (aam_analyze,
// aam_mc): a change that shifts a tool's output must regenerate the
// committed file, so the shift is reviewable line by line.

#include <string>

namespace aam::util {

/// How one tool names itself and its golden rendering in messages.
struct GoldenSpec {
  const char* tool;         ///< binary name under build/tools/, e.g. "aam_mc"
  std::string what;         ///< e.g. "certification manifest"
  const char* match_verb;   ///< "match" or "matches", agreeing with `what`
  std::string regen_flags;  ///< flags the regeneration hint puts first
};

/// With a non-empty `write_golden_path`, writes `current` there. Otherwise
/// diffs `current` against the file at `golden_path` and prints the first
/// divergent lines on drift. Returns the tool's exit code: 0 on a write or
/// a match, 1 on drift or an unreadable/unwritable file.
int run_golden(const GoldenSpec& spec, const std::string& current,
               const std::string& golden_path,
               const std::string& write_golden_path);

}  // namespace aam::util
