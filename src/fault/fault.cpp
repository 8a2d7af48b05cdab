#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/check.hpp"

namespace aam::fault {

namespace {

// --------------------------------------------------------------- spec parse

void apply_scenario_storm(const model::FaultProfile& p, FaultPlan& plan) {
  plan.storm_rate_per_us = p.storm_rate_per_us;
  plan.storm_period_ns = p.storm_period_ns;
  plan.storm_duty = p.storm_duty;
}

void apply_scenario_net(const model::FaultProfile& p, FaultPlan& plan) {
  plan.net_drop = p.net_drop;
  plan.net_duplicate = p.net_duplicate;
  plan.net_reorder = p.net_reorder;
  plan.net_reorder_ns = p.net_reorder_ns;
  plan.net_delay_spike = p.net_delay_spike;
  plan.net_delay_spike_ns = p.net_delay_spike_ns;
  plan.net_rto_ns = p.net_rto_ns;
  plan.net_rto_cap_ns = p.net_rto_cap_ns;
}

void apply_scenario_straggler(const model::FaultProfile& p, FaultPlan& plan) {
  plan.straggler_fraction = p.straggler_fraction;
  plan.straggler_factor = p.straggler_factor;
  plan.straggler_period_ns = p.straggler_period_ns;
  plan.straggler_duty = p.straggler_duty;
}

void apply_scenario_brownout(const model::FaultProfile& p, FaultPlan& plan) {
  plan.brownout_fraction = p.brownout_fraction;
  plan.brownout_factor = p.brownout_factor;
  plan.brownout_period_ns = p.brownout_period_ns;
  plan.brownout_duty = p.brownout_duty;
}

void apply_scenario_crash(const model::FaultProfile& p, FaultPlan& plan) {
  plan.crash_p = p.crash_p;
  plan.crash_at_ns = p.crash_at_ns;
  plan.crash_max = p.crash_max;
  plan.crash_ckpt_ns = p.crash_ckpt_ns;
}

bool parse_number(std::string_view text, double& out) {
  const std::string s(text);
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && end != s.c_str() &&
         std::isfinite(out);
}

/// key=value assignment table: maps a spec key to a FaultPlan field.
struct KeyEntry {
  const char* key;
  double FaultPlan::* field;
};

constexpr KeyEntry kKeys[] = {
    {"storm.rate", &FaultPlan::storm_rate_per_us},
    {"storm.period", &FaultPlan::storm_period_ns},
    {"storm.duty", &FaultPlan::storm_duty},
    {"net.drop", &FaultPlan::net_drop},
    {"net.dup", &FaultPlan::net_duplicate},
    {"net.reorder", &FaultPlan::net_reorder},
    {"net.reorder_ns", &FaultPlan::net_reorder_ns},
    {"net.spike", &FaultPlan::net_delay_spike},
    {"net.spike_ns", &FaultPlan::net_delay_spike_ns},
    {"net.rto", &FaultPlan::net_rto_ns},
    {"net.rto_cap", &FaultPlan::net_rto_cap_ns},
    {"straggler.fraction", &FaultPlan::straggler_fraction},
    {"straggler.factor", &FaultPlan::straggler_factor},
    {"straggler.period", &FaultPlan::straggler_period_ns},
    {"straggler.duty", &FaultPlan::straggler_duty},
    {"brownout.fraction", &FaultPlan::brownout_fraction},
    {"brownout.factor", &FaultPlan::brownout_factor},
    {"brownout.period", &FaultPlan::brownout_period_ns},
    {"brownout.duty", &FaultPlan::brownout_duty},
    {"crash.p", &FaultPlan::crash_p},
    {"crash.at", &FaultPlan::crash_at_ns},
    {"crash.max", &FaultPlan::crash_max},
    {"crash.ckpt", &FaultPlan::crash_ckpt_ns},
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

// -------------------------------------------------- deterministic selection

/// Marks the ceil(fraction * n) indices with the smallest hash of
/// (seed, salt, index) — a stable pseudo-random subset independent of any
/// RNG stream consumption order.
std::vector<std::uint8_t> pick_subset(double fraction, std::size_t n,
                                      std::uint64_t seed,
                                      std::uint64_t salt) {
  std::vector<std::uint8_t> picked(n, 0);
  if (n == 0 || fraction <= 0) return picked;
  const std::size_t k = std::min(
      n, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return util::mix64(seed ^ util::mix64(salt ^ (a + 1))) <
           util::mix64(seed ^ util::mix64(salt ^ (b + 1)));
  });
  for (std::size_t i = 0; i < k; ++i) picked[order[i]] = 1;
  return picked;
}

/// Square-wave window membership: the first duty fraction of each period.
bool in_window(double t, double period, double duty) {
  if (period <= 0 || duty >= 1.0) return true;
  if (duty <= 0.0) return false;
  double r = std::fmod(t, period);
  if (r < 0) r += period;
  return r < duty * period;
}

double phase_of(std::uint64_t seed, std::uint64_t salt, std::size_t i,
                double period) {
  if (period <= 0) return 0;
  const double u = static_cast<double>(
                       util::mix64(seed ^ util::mix64(salt ^ (i + 1))) >> 11) *
                   0x1.0p-53;
  return u * period;
}

/// Applies the comma-separated tokens of `list` to `out`, left to right;
/// returns the first token's error, if any.
std::optional<std::string> apply_tokens(std::string_view list,
                                        const model::FaultProfile& profile,
                                        FaultPlan& out) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string_view token = trim(list.substr(pos, comma - pos));
    pos = comma + 1;
    if (token.empty()) continue;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      if (token == "none") {
        // explicit no-op; composes as the identity
      } else if (token == "abort-storm") {
        apply_scenario_storm(profile, out);
      } else if (token == "lossy-net") {
        apply_scenario_net(profile, out);
      } else if (token == "straggler") {
        apply_scenario_straggler(profile, out);
      } else if (token == "brownout") {
        apply_scenario_brownout(profile, out);
      } else if (token == "combined") {
        apply_scenario_storm(profile, out);
        apply_scenario_net(profile, out);
        apply_scenario_straggler(profile, out);
        apply_scenario_brownout(profile, out);
      } else if (token == "crash-restart") {
        apply_scenario_crash(profile, out);
      } else if (token == "crash-combined") {
        // Crashes on top of every other misbehaviour: checkpoints taken
        // while wire copies are dropped/duplicated, restores into storms.
        apply_scenario_crash(profile, out);
        apply_scenario_storm(profile, out);
        apply_scenario_net(profile, out);
        apply_scenario_straggler(profile, out);
        apply_scenario_brownout(profile, out);
      } else {
        return "unknown fault scenario: '" + std::string(token) +
               "' (expected none, abort-storm, lossy-net, straggler, "
               "brownout, combined, crash-restart, crash-combined, or "
               "key=value)";
      }
      continue;
    }

    const std::string_view key = trim(token.substr(0, eq));
    const std::string_view value = trim(token.substr(eq + 1));
    double parsed = 0;
    if (!parse_number(value, parsed)) {
      return "bad numeric value for fault key '" + std::string(key) +
             "': '" + std::string(value) + "'";
    }
    bool found = false;
    for (const KeyEntry& entry : kKeys) {
      if (key == entry.key) {
        out.*entry.field = parsed;
        found = true;
        break;
      }
    }
    if (!found) return "unknown fault key: '" + std::string(key) + "'";
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> try_parse(std::string_view spec,
                                     const model::FaultProfile& profile,
                                     FaultPlan& out) {
  out = FaultPlan{};
  out.net_rto_ns = profile.net_rto_ns;
  out.net_rto_cap_ns = profile.net_rto_cap_ns;
  out.crash_max = profile.crash_max;
  out.crash_ckpt_ns = profile.crash_ckpt_ns;

  spec = trim(spec);
  if (spec.empty() || spec.front() != '@') {
    return apply_tokens(spec, profile, out);  // empty == none
  }
  const std::string path(spec.substr(1));
  std::ifstream in(path);
  if (!in) return "cannot read fault spec file: " + path;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (auto error = apply_tokens(line, profile, out)) {
      return path + ":" + std::to_string(line_no) + ": " + *error;
    }
  }
  return std::nullopt;
}

FaultPlan parse(std::string_view spec, const model::FaultProfile& profile) {
  FaultPlan plan;
  const auto error = try_parse(spec, profile, plan);
  AAM_CHECK_MSG(!error.has_value(), error ? error->c_str() : "");
  return plan;
}

const std::vector<std::string>& canned_scenarios() {
  static const std::vector<std::string> kScenarios = {
      "none",     "abort-storm",   "lossy-net",      "straggler",
      "combined", "crash-restart", "crash-combined"};
  return kScenarios;
}

// ------------------------------------------------------------ FaultInjector

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                             int num_threads, int threads_per_node)
    : plan_(plan),
      threads_per_node_(threads_per_node > 0 ? threads_per_node
                                             : num_threads),
      crash_rng_(util::Rng(seed).fork(0xc4a5ULL)),
      net_rng_(util::Rng(seed).fork(0xfa017ULL)) {
  AAM_CHECK(num_threads >= 1);
  const std::size_t t = static_cast<std::size_t>(num_threads);
  const std::size_t nodes =
      (t + static_cast<std::size_t>(threads_per_node_) - 1) /
      static_cast<std::size_t>(threads_per_node_);
  const util::Rng root(seed);
  abort_rng_.reserve(t);
  for (std::size_t i = 0; i < t; ++i) {
    abort_rng_.push_back(root.fork(0xab027ULL + i));
  }
  straggler_ = pick_subset(plan_.straggler_fraction, t, seed, 0x57a6ULL);
  straggler_phase_.resize(t);
  storm_phase_.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    straggler_phase_[i] =
        phase_of(seed, 0x57a6'0001ULL, i, plan_.straggler_period_ns);
    storm_phase_[i] = phase_of(seed, 0x5707'0001ULL, i, plan_.storm_period_ns);
  }
  brownout_ = pick_subset(plan_.brownout_fraction, nodes, seed, 0xb07fULL);
  brownout_phase_.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    brownout_phase_[i] =
        phase_of(seed, 0xb07f'0001ULL, i, plan_.brownout_period_ns);
  }
  injected_.other_aborts_by_thread.assign(t, 0);
}

void FaultInjector::attach(htm::DesMachine& machine) {
  AAM_CHECK(machine.num_threads() ==
            static_cast<int>(abort_rng_.size()));
  if (plan_.storm_active() || plan_.slowdown_active() ||
      plan_.crash_active()) {
    machine.set_fault_hook(this);
  }
}

void FaultInjector::attach(net::Cluster& cluster) {
  attach(cluster.machine());
  if (net_active()) cluster.set_fault_hook(this);
}

bool FaultInjector::inject_other_abort(std::uint32_t tid, double start_ns,
                                       double duration_ns, double& frac_out) {
  if (!plan_.storm_active()) return false;
  if (!in_window(start_ns + storm_phase_[tid], plan_.storm_period_ns,
                 plan_.storm_duty)) {
    return false;
  }
  util::Rng& rng = abort_rng_[tid];
  const double p =
      1.0 - std::exp(-plan_.storm_rate_per_us * duration_ns / 1e3);
  if (!rng.next_bool(p)) return false;
  frac_out = rng.next_double();
  ++injected_.other_aborts;
  ++injected_.other_aborts_by_thread[tid];
  return true;
}

bool FaultInjector::inject_crash(std::uint32_t tid, double now_ns) {
  (void)tid;
  if (!plan_.crash_active()) return false;
  if (crashes_fired_ >= static_cast<std::uint64_t>(plan_.crash_max)) {
    return false;
  }
  // The deterministic one-shot: the first completion at or past crash.at.
  // The consumed flag is never rolled back — a restore rewinds virtual
  // time below crash_at_ns, and re-firing there would loop forever.
  if (plan_.crash_at_ns > 0 && !crash_at_consumed_ &&
      now_ns >= plan_.crash_at_ns) {
    crash_at_consumed_ = true;
    ++crashes_fired_;
    ++injected_.crashes;
    return true;
  }
  if (plan_.crash_p > 0 && crash_rng_.next_bool(plan_.crash_p)) {
    ++crashes_fired_;
    ++injected_.crashes;
    return true;
  }
  return false;
}

double FaultInjector::slowdown(std::uint32_t tid, double now_ns) {
  double factor = 1.0;
  if (plan_.straggler_active() && straggler_[tid] != 0 &&
      in_window(now_ns + straggler_phase_[tid], plan_.straggler_period_ns,
                plan_.straggler_duty)) {
    factor *= plan_.straggler_factor;
  }
  if (plan_.brownout_active()) {
    const std::size_t node =
        tid / static_cast<std::uint32_t>(threads_per_node_);
    if (brownout_[node] != 0 &&
        in_window(now_ns + brownout_phase_[node], plan_.brownout_period_ns,
                  plan_.brownout_duty)) {
      factor *= plan_.brownout_factor;
    }
  }
  return factor;
}

net::MessageFate FaultInjector::fate(const net::Message& msg,
                                     bool retransmit) {
  (void)msg;
  (void)retransmit;
  net::MessageFate f;
  if (net_rng_.next_bool(plan_.net_drop)) {
    f.drop = true;
    ++injected_.net_dropped;
  }
  if (net_rng_.next_bool(plan_.net_duplicate)) {
    f.duplicate = true;
    // The duplicate trails the primary copy by a jittered gap that can
    // exceed the RTO, so dedup races against retransmission too.
    f.duplicate_delay_ns =
        net_rng_.next_double() *
        std::max(plan_.net_reorder_ns, 0.5 * plan_.net_rto_ns);
    ++injected_.net_duplicated;
  }
  if (net_rng_.next_bool(plan_.net_reorder)) {
    f.extra_delay_ns += net_rng_.next_double() * plan_.net_reorder_ns;
  }
  if (net_rng_.next_bool(plan_.net_delay_spike)) {
    f.extra_delay_ns +=
        plan_.net_delay_spike_ns * (0.5 + net_rng_.next_double());
  }
  return f;
}

}  // namespace aam::fault
