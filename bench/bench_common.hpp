#pragma once

// Shared scaffolding for the figure/table reproduction harnesses.
//
// Every bench binary:
//  * runs with fast scaled-down defaults (seconds on a small host) and
//    accepts --scale / size flags to approach the paper's sizes;
//  * prints an aligned table with the same rows/series the paper reports,
//    plus paper-vs-measured columns where the paper states numbers;
//  * optionally mirrors rows to CSV via --csv=<path>.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "htm/des_engine.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "net/cluster.hpp"
#include "recovery/manager.hpp"
#include "sim/shard.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace aam::bench {

/// Thread counts for the three §5.5 scenarios on a machine: T=1, one
/// thread per core, one thread per SMT resource.
inline std::vector<int> standard_thread_counts(const model::MachineConfig& m) {
  return {1, m.threads_per_core_one(), m.max_threads()};
}

/// The HTM kinds analyzed on a machine plus its atomics baseline.
inline const char* machine_atomic_name(const model::MachineConfig& m) {
  return m.name == "BGQ" ? "BGQ-CAS" : "Has-CAS";
}

struct BenchIo {
  util::Cli* cli = nullptr;
  std::string csv_path;

  void maybe_write_csv(const util::Table& table, const std::string& suffix) {
    if (csv_path.empty()) return;
    const std::string path =
        suffix.empty() ? csv_path : csv_path + "." + suffix;
    table.write_csv(path);
    std::printf("(csv written to %s)\n", path.c_str());
  }
};

inline void print_header(const std::string& title, const std::string& what) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), what.c_str());
}

/// Pretty-prints a speedup with the paper's convention: values in
/// (0.99, 1.01) print as "~1".
inline std::string speedup_str(double s) {
  if (s > 0.99 && s < 1.01) return "~1";
  return util::format_double(s, 2);
}

/// Scope-bound dynamic analysis for one simulated run (--check=...). When
/// the config enables any checker, builds a check::Checker on `machine`
/// and exposes it as the core::BatchRecorder to thread into Options structs;
/// at scope end, reports violations to stderr and exits 3 so CI treats a
/// racy/non-serializable run as a failure. With --check=none (default)
/// everything is a no-op.
class ScopedChecker {
 public:
  ScopedChecker(htm::DesMachine& machine, const check::CheckConfig& config) {
    if (config.enabled()) {
      checker_ = std::make_unique<check::Checker>(machine, config);
    }
  }

  ScopedChecker(const ScopedChecker&) = delete;
  ScopedChecker& operator=(const ScopedChecker&) = delete;

  core::BatchRecorder* recorder() { return checker_.get(); }
  check::Checker* checker() { return checker_.get(); }

  ~ScopedChecker() {
    if (checker_ == nullptr || checker_->passed()) return;
    checker_->report(std::cerr);
    std::exit(3);
  }

 private:
  std::unique_ptr<check::Checker> checker_;
};

/// Scope-bound fault injection for one simulated run (--fault=<spec>).
/// Parses the spec against the machine's calibrated FaultProfile, builds a
/// fault::FaultInjector seeded like the run, and attaches it for the
/// scope's lifetime. Crash plans additionally install a
/// recovery::RecoveryManager (interval from crash.ckpt) so injected
/// crash-stops restore from the last checkpoint instead of aborting the
/// bench. With --fault=none (or any spec whose plan is inert) nothing is
/// installed and the run is bit-identical to a hook-free build.
class ScopedFault {
 public:
  ScopedFault(htm::DesMachine& machine, const std::string& spec,
              std::uint64_t seed)
      : machine_(&machine),
        plan_(fault::parse(spec, machine.config().fault)) {
    if (plan_.any()) {
      injector_ = std::make_unique<fault::FaultInjector>(
          plan_, seed, machine.num_threads());
      injector_->attach(machine);
    }
    if (plan_.crash_active()) {
      recovery_ = std::make_unique<recovery::RecoveryManager>(
          machine, recovery::RecoveryOptions{plan_.crash_ckpt_ns});
    }
  }

  /// Cluster flavor: also installs the network-side hook, and scopes
  /// brown-outs to the cluster's nodes.
  ScopedFault(net::Cluster& cluster, const std::string& spec,
              std::uint64_t seed)
      : machine_(&cluster.machine()),
        cluster_(&cluster),
        plan_(fault::parse(spec, cluster.config().fault)) {
    if (plan_.any()) {
      injector_ = std::make_unique<fault::FaultInjector>(
          plan_, seed, machine_->num_threads(), cluster.threads_per_node());
      injector_->attach(cluster);
    }
    if (plan_.crash_active()) {
      recovery_ = std::make_unique<recovery::RecoveryManager>(
          cluster, recovery::RecoveryOptions{plan_.crash_ckpt_ns});
    }
  }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  ~ScopedFault() {
    // The manager unregisters itself from the machine; drop it before the
    // hooks so no checkpoint can fire on a hook-less machine.
    recovery_.reset();
    if (injector_ == nullptr) return;
    machine_->set_fault_hook(nullptr);
    if (cluster_ != nullptr) cluster_->set_fault_hook(nullptr);
  }

  const fault::FaultPlan& plan() const { return plan_; }
  /// nullptr when the plan is inert ("none").
  fault::FaultInjector* injector() { return injector_.get(); }
  /// nullptr unless the plan has crash-stop faults.
  recovery::RecoveryManager* recovery() { return recovery_.get(); }

 private:
  htm::DesMachine* machine_ = nullptr;
  net::Cluster* cluster_ = nullptr;
  fault::FaultPlan plan_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<recovery::RecoveryManager> recovery_;
};

/// Read --fault=<spec> and syntax-check it up front so a malformed spec
/// exits 2 like every other bad flag value, instead of aborting mid-run.
/// Fault semantics still come from each machine's own FaultProfile when
/// ScopedFault re-parses the spec per run; the errors (unknown scenario or
/// key, bad number, unreadable @file) are profile-independent.
inline std::string get_fault_spec(util::Cli& cli) {
  const std::string spec = cli.get_string("fault", "none");
  fault::FaultPlan plan;
  const auto error = fault::try_parse(spec, model::FaultProfile{}, plan);
  if (error.has_value()) {
    std::cerr << "invalid --fault=" << spec << "; " << *error << "\n";
    std::exit(2);
  }
  return spec;
}

/// Read --host-threads=N|max and install it as the process-wide worker
/// count for the parallel DES backend (sim::ShardRunner). N=1 (the
/// default) is the strict sequential engine: shard jobs run inline on the
/// caller with no thread machinery, and every simulated result is
/// bit-identical at any other N — the backend only changes which host
/// thread executes an independent shard, never the simulated schedule.
/// Exits 2 on a malformed value, like every other bad flag.
inline int get_host_threads(util::Cli& cli) {
  const std::string raw = cli.get_string("host-threads", "");
  if (!raw.empty()) {
    const std::optional<int> n = sim::parse_host_threads(raw);
    if (!n.has_value()) {
      std::cerr << "invalid --host-threads=" << raw << "; "
                << sim::kHostThreadsSyntax << "\n";
      std::exit(2);
    }
    sim::set_host_threads(*n);
  }
  return sim::host_threads();
}

}  // namespace aam::bench
