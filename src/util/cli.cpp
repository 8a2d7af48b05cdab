#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace aam::util {

namespace {

[[noreturn]] void invalid_value(const std::string& name,
                                const std::string& value,
                                const char* expected) {
  std::fprintf(stderr, "invalid --%s=%s; expected %s\n", name.c_str(),
               value.c_str(), expected);
  std::exit(2);
}

/// strtoll (base 0, so hex stays valid) over the whole of `s`: false on an
/// empty string, trailing garbage or an out-of-range value.
bool parse_int(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 0);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "aam";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::string Cli::get_string(const std::string& name, const std::string& def) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::int64_t v = 0;
  if (!parse_int(it->second, v)) invalid_value(name, it->second, "an integer");
  return v;
}

double Cli::get_double(const std::string& name, double def) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || errno == ERANGE || end != s.c_str() + s.size()) {
    invalid_value(name, s, "a number");
  }
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  invalid_value(name, v, "true/false/1/0/yes/no/on/off");
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& def) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (true) {
    const auto comma = s.find(',', pos);
    std::int64_t v = 0;
    // comma - pos overshoots the end when comma is npos; substr clamps.
    if (!parse_int(s.substr(pos, comma - pos), v)) {
      invalid_value(name, s, "a comma-separated list of integers");
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string Cli::get_choice(const std::string& name, const std::string& def,
                            const std::vector<std::string>& allowed) {
  const std::string value = get_string(name, def);
  for (const auto& choice : allowed) {
    if (value == choice) return value;
  }
  std::fprintf(stderr, "invalid --%s=%s; valid choices:", name.c_str(),
               value.c_str());
  for (const auto& choice : allowed) std::fprintf(stderr, " %s", choice.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

void Cli::check_unknown() const {
  bool bad = false;
  for (const auto& [name, value] : values_) {
    if (!consumed_.count(name)) {
      std::fprintf(stderr, "unknown flag: --%s=%s\n", name.c_str(), value.c_str());
      bad = true;
    }
  }
  if (bad) std::exit(2);
}

}  // namespace aam::util
