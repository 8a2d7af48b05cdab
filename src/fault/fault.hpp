#pragma once

// aam::fault — deterministic, seed-driven fault injection (ROADMAP
// "production-scale, as many scenarios as you can imagine").
//
// A FaultPlan describes what misbehaves; a FaultInjector implements the
// engine- and network-side hooks (htm::FaultHook, net::NetFaultHook) that
// realize the plan, drawing every decision from RNG streams forked off the
// simulation seed — same seed + same plan ⇒ the same fault schedule ⇒
// bit-identical runs. The runtime must *survive* every plan with results
// equal to the fault-free run ("fault-oblivious correctness"); recovery is
// visible only in HtmStats/NetStats and the injector's own counters.
//
// Spec grammar (--fault=<spec>):
//
//   spec   := '@' path | token (',' token)*
//   token  := scenario | key '=' value
//   scenario := none | abort-storm | lossy-net | straggler | brownout
//             | combined
//
// Scenario tokens expand to the machine's calibrated defaults
// (model::FaultProfile); key=value tokens override individual fields and
// compose left to right, e.g. "abort-storm,storm.rate=2.5" or
// "lossy-net,net.drop=0.2,net.rto=4000". '@path' reads the spec from a
// file: its lines compose as if joined by ',', '#' starts a comment, and an
// error in a line is reported as "path:line: ...".

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "htm/des_engine.hpp"
#include "model/machines.hpp"
#include "net/cluster.hpp"
#include "util/rng.hpp"

namespace aam::fault {

/// A fully-resolved fault scenario. Zero/one values mean "inactive"; the
/// canned scenarios fill fields from the machine's FaultProfile.
struct FaultPlan {
  // Abort storm: extra kOther aborts per microsecond of transaction
  // duration, in square-wave bursts (period 0 = continuous).
  double storm_rate_per_us = 0;
  double storm_period_ns = 0;
  double storm_duty = 1.0;
  // Lossy network: per-wire-transmission probabilities and magnitudes.
  double net_drop = 0;
  double net_duplicate = 0;
  double net_reorder = 0;
  double net_reorder_ns = 0;
  double net_delay_spike = 0;
  double net_delay_spike_ns = 0;
  double net_rto_ns = 8000.0;
  double net_rto_cap_ns = 64000.0;
  // Stragglers: a deterministic thread subset slows down in windows.
  double straggler_fraction = 0;
  double straggler_factor = 1.0;
  double straggler_period_ns = 0;
  double straggler_duty = 0.5;
  // Brown-outs: whole simulated nodes transiently slow down.
  double brownout_fraction = 0;
  double brownout_factor = 1.0;
  double brownout_period_ns = 0;
  double brownout_duty = 0.25;
  // Crash-stop failures (src/recovery/): crash_p is the per-completed-
  // activity crash probability, crash_at_ns forces one crash at the first
  // completion past that virtual time (0 = off), crash_max caps total
  // crashes, crash_ckpt_ns is the checkpoint interval the recovery
  // manager should use.
  double crash_p = 0;
  double crash_at_ns = 0;
  double crash_max = 3.0;
  double crash_ckpt_ns = 5.0e4;

  bool storm_active() const { return storm_rate_per_us > 0; }
  bool net_active() const {
    return net_drop > 0 || net_duplicate > 0 || net_reorder > 0 ||
           net_delay_spike > 0;
  }
  bool straggler_active() const {
    return straggler_fraction > 0 && straggler_factor > 1.0;
  }
  bool brownout_active() const {
    return brownout_fraction > 0 && brownout_factor > 1.0;
  }
  bool slowdown_active() const {
    return straggler_active() || brownout_active();
  }
  bool crash_active() const { return crash_p > 0 || crash_at_ns > 0; }
  bool any() const {
    return storm_active() || net_active() || slowdown_active() ||
           crash_active();
  }
};

/// Parses `spec` against `profile`; returns an error string on malformed
/// input (unknown scenario/key, bad number, unreadable @file; prefixed
/// with "path:line: " for a token read from a file), otherwise fills `out`.
std::optional<std::string> try_parse(std::string_view spec,
                                     const model::FaultProfile& profile,
                                     FaultPlan& out);

/// try_parse that aborts with the error message on malformed specs (for
/// CLI use where the spec came straight from the user).
FaultPlan parse(std::string_view spec, const model::FaultProfile& profile);

/// The canned scenario names, in sweep order ("none" first).
const std::vector<std::string>& canned_scenarios();

/// Exact injection counters, mirrored by the observation side: every
/// inject_other_abort fire becomes exactly one HtmStats::aborts_other on
/// that thread, and every drop/duplicate decision is counted by the
/// cluster at the point it is applied (NetStats::dropped/duplicated).
struct InjectedStats {
  std::uint64_t other_aborts = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_duplicated = 0;
  std::uint64_t crashes = 0;  ///< inject_crash fires (crash-stop events)
  std::vector<std::uint64_t> other_aborts_by_thread;
};

/// Realizes a FaultPlan against one DesMachine (or the Cluster wrapping
/// it). Not owned by the machine; keep it alive for the whole run.
class FaultInjector final : public htm::FaultHook, public net::NetFaultHook {
 public:
  /// `threads_per_node` scopes brown-outs to nodes; pass 0 for a
  /// single-node machine (brown-outs then cover the whole machine as one
  /// node).
  FaultInjector(const FaultPlan& plan, std::uint64_t seed, int num_threads,
                int threads_per_node = 0);

  /// Installs the engine-side hook (no-op for a plan with no machine-side
  /// faults, so a "none"/net-only plan leaves the engine untouched).
  void attach(htm::DesMachine& machine);
  /// Installs both the engine-side and the network-side hooks.
  void attach(net::Cluster& cluster);

  // htm::FaultHook
  bool inject_other_abort(std::uint32_t tid, double start_ns,
                          double duration_ns, double& frac_out) override;
  double slowdown(std::uint32_t tid, double now_ns) override;
  bool inject_crash(std::uint32_t tid, double now_ns) override;

  /// True if attach(Cluster&) installs the network hook, which turns the
  /// reliable-delivery protocol on. Crash scenarios force it on even with
  /// no wire faults configured, so their simulated runs keep the acks and
  /// retransmit timers they were recorded with.
  bool net_active() const {
    return plan_.net_active() || plan_.crash_active();
  }

  // net::NetFaultHook
  net::MessageFate fate(const net::Message& msg, bool retransmit) override;
  double initial_rto_ns() const override { return plan_.net_rto_ns; }
  double rto_cap_ns() const override { return plan_.net_rto_cap_ns; }

  const InjectedStats& injected() const { return injected_; }
  /// True if thread `tid` is in the deterministic straggler subset.
  bool is_straggler(std::uint32_t tid) const {
    return straggler_[tid] != 0;
  }

 private:
  FaultPlan plan_;
  int threads_per_node_;
  // Dedicated streams, forked from the seed independently of the engine's
  // per-thread RNGs: injection never perturbs the machine's own draws.
  // The crash stream (and the fired counters) deliberately survive a
  // restore — the injector is the external world, so rolled-back execution
  // re-runs under *fresh* crash draws and recovery terminates instead of
  // replaying the same crash forever.
  std::vector<util::Rng> abort_rng_;  // per thread
  util::Rng crash_rng_;
  std::uint64_t crashes_fired_ = 0;
  bool crash_at_consumed_ = false;
  util::Rng net_rng_;
  std::vector<std::uint8_t> straggler_;   // per thread
  std::vector<double> straggler_phase_;   // per thread
  std::vector<double> storm_phase_;       // per thread
  std::vector<std::uint8_t> brownout_;    // per node
  std::vector<double> brownout_phase_;    // per node
  InjectedStats injected_;
};

}  // namespace aam::fault
