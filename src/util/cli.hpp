#pragma once

// Minimal command-line flag parsing for the bench and example binaries.
//
// Accepted forms: --name=value, --name value, --flag (boolean true).
// Unknown flags abort with a message listing what was seen, so typos in
// experiment scripts fail loudly instead of silently running defaults.
// Numeric getters likewise exit 2 on an empty value, trailing garbage or
// an out-of-range number (a value-less `--scale` is "true", not 0).

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace aam::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Typed getters; the first call for a name registers it as known.
  std::string get_string(const std::string& name, const std::string& def);
  std::int64_t get_int(const std::string& name, std::int64_t def);
  double get_double(const std::string& name, double def);
  /// true/1/yes/on or false/0/no/off; any other value exits 2.
  bool get_bool(const std::string& name, bool def);
  /// Comma-separated integer list, e.g. --sizes=1,2,4,8 (no empty items).
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         const std::vector<std::int64_t>& def);
  /// String restricted to `allowed`; aborts listing the valid choices if
  /// the provided value is not one of them.
  std::string get_choice(const std::string& name, const std::string& def,
                         const std::vector<std::string>& allowed);
  /// Comma-separated items of `allowed` (empty when the flag is absent);
  /// exits 2 listing the valid choices on any other item.
  std::vector<std::string> get_choice_list(
      const std::string& name, const std::vector<std::string>& allowed);

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Call after all getters: aborts if any provided flag was never consumed.
  void check_unknown() const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

}  // namespace aam::util
