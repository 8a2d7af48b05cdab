#pragma once

// Shared scaffolding for the figure/table reproduction harnesses.
//
// Every bench binary:
//  * runs with fast scaled-down defaults (seconds on a small host) and
//    accepts --scale / size flags to approach the paper's sizes;
//  * prints an aligned table with the same rows/series the paper reports,
//    plus paper-vs-measured columns where the paper states numbers;
//  * optionally mirrors rows to CSV via --csv=<path>;
//  * builds each simulated run as one bench::Cell.
//
// A Cell builds its run in a fixed order: the SimHeap; a DesMachine, or a
// net::Cluster and the machine inside it; the machine's shard binding when
// a sim::ShardRunner job owns the run; the check::Checker that --check
// asks for; and the fault injector and recovery manager that --fault asks
// for. Teardown drops the recovery manager, then unhooks the injector,
// then reports the checker's verdict (a violation exits 3), and only then
// frees the machine and its heap. Neither the checker nor the fault layer
// allocates on the SimHeap, so a checked or faulted run lays the heap out
// exactly like a plain one. Cell::configure turns a --mechanism selection
// into the run's executor config (auto routes by the cell's own copy of
// the input graph's policy, which the checker's capacity audit reads too).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/registry.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "check/check.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "fault/fault.hpp"
#include "htm/des_engine.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "net/cluster.hpp"
#include "recovery/manager.hpp"
#include "sim/shard.hpp"
#include "util/cli.hpp"
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

/// The simulated machine of one cell: a DesMachine of `threads` threads,
/// or, with `nodes` > 0, a net::Cluster of `nodes` nodes with `threads`
/// threads each.
struct MachineSpec {
  const model::MachineConfig& config;
  model::HtmKind kind;
  int threads;
  std::uint64_t seed = 1;
  int nodes = 0;
};

/// What a bench's --check and --fault flags ask of each of its runs.
struct RunFlags {
  check::CheckConfig check = {};
  std::string fault = "none";
};

/// One simulated run; see the header comment for what it builds and in
/// which order.
class Cell {
 public:
  explicit Cell(const MachineSpec& spec, const RunFlags& flags = {},
                std::optional<sim::ShardId> shard = std::nullopt) {
    if (spec.nodes > 0) {
      cluster_.emplace(spec.config, spec.kind, spec.nodes, spec.threads,
                       heap_, spec.seed);
      machine_ = &cluster_->machine();
    } else {
      own_machine_.emplace(spec.config, spec.kind, spec.threads, heap_,
                           spec.seed);
      machine_ = &*own_machine_;
    }
    if (shard.has_value()) machine_->bind_shard(*shard);
    if (flags.check.enabled()) {
      checker_ = std::make_unique<check::Checker>(*machine_, flags.check);
    }
    const fault::FaultPlan plan = fault::parse(flags.fault,
                                               spec.config.fault);
    if (plan.any()) {
      // Brown-outs act per node on a cluster.
      injector_ = std::make_unique<fault::FaultInjector>(
          plan, spec.seed, machine_->num_threads(),
          cluster_ ? spec.threads : 0);
      cluster_ ? injector_->attach(*cluster_) : injector_->attach(*machine_);
    }
    if (plan.crash_active()) {
      // Injected crash-stops restore from the last checkpoint instead of
      // aborting the bench.
      const recovery::RecoveryOptions options{plan.crash_ckpt_ns};
      recovery_ = cluster_ ? std::make_unique<recovery::RecoveryManager>(
                                 *cluster_, options)
                           : std::make_unique<recovery::RecoveryManager>(
                                 *machine_, options);
    }
  }

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  ~Cell() {
    // The manager unregisters itself from the machine; drop it before the
    // hooks so no checkpoint can fire on a hook-less machine.
    recovery_.reset();
    if (injector_ != nullptr) {
      machine_->set_fault_hook(nullptr);
      if (cluster_) cluster_->set_fault_hook(nullptr);
    }
    // CI treats a racy or non-serializable run as a failure.
    if (checker_ != nullptr && !checker_->passed()) {
      checker_->report(std::cerr);
      std::exit(3);
    }
  }

  mem::SimHeap& heap() { return heap_; }
  htm::DesMachine& machine() { return *machine_; }
  /// Cluster cells only.
  net::Cluster& cluster() { return *cluster_; }

  /// The --check recorder to thread into a run's options; nullptr unchecked.
  core::BatchRecorder* recorder() { return checker_.get(); }
  /// nullptr when --fault is inert ("none").
  fault::FaultInjector* injector() { return injector_.get(); }
  /// nullptr unless --fault has crash-stop faults.
  recovery::RecoveryManager* recovery() { return recovery_.get(); }
  /// The auto routing table of this run, once configure() selected auto.
  const core::AutoPolicy* auto_policy() const {
    return policy_ ? &*policy_ : nullptr;
  }

  /// `exec` (an ExecConfig, or an algorithm's Options deriving from it)
  /// pointed at this run: the checker's recorder, and the mechanism
  /// `selection` names. Auto routes by a private copy of `policy`, the
  /// table for the run's input graph: the telemetry inside a policy is
  /// mutable, so cells on parallel shards must not share one. The
  /// checker audits every HTM batch against the copy's capacity bound.
  template <typename Exec>
  Exec configure(Exec exec, core::MechanismSelection selection,
                 const core::AutoPolicy* policy = nullptr) {
    exec.recorder = recorder();
    if (selection.is_auto()) {
      AAM_CHECK_MSG(policy != nullptr, "auto needs a routing policy");
      policy_ = *policy;
      exec.auto_policy = &*policy_;
      if (checker_ != nullptr) checker_->set_capacity_policy(&*policy_);
    } else {
      exec.mechanism = *selection.fixed;
      exec.auto_policy = nullptr;
    }
    return exec;
  }

 private:
  mem::SimHeap heap_;
  std::optional<net::Cluster> cluster_;
  std::optional<htm::DesMachine> own_machine_;
  htm::DesMachine* machine_ = nullptr;
  std::unique_ptr<check::Checker> checker_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<recovery::RecoveryManager> recovery_;
  std::optional<core::AutoPolicy> policy_;
};

/// The BFS benches' run: BFS from `root` on a fresh cell, under
/// `selection` with `batch` visits per activity, its tree validated before
/// the result returns. Auto routes by the policy probed on `g`.
inline algorithms::BfsResult checked_bfs(const MachineSpec& spec,
                                         const RunFlags& flags,
                                         const graph::Graph& g,
                                         graph::Vertex root,
                                         core::MechanismSelection selection,
                                         int batch) {
  Cell cell(spec, flags);
  std::optional<core::AutoPolicy> policy;
  if (selection.is_auto()) {
    policy = analysis::make_auto_policy(
        spec.config, spec.kind,
        analysis::workload_from_graph(g, spec.threads, batch));
  }
  algorithms::BfsOptions options;
  options.root = root;
  options.batch = batch;
  options = cell.configure(options, selection, policy ? &*policy : nullptr);
  algorithms::BfsResult r = algorithms::run_bfs(cell.machine(), g, options);
  AAM_CHECK(algorithms::validate_bfs_tree(g, root, r.parent));
  return r;
}

/// The column label of a selection: the mechanism's name, or "auto".
inline std::string label(core::MechanismSelection selection) {
  return selection.is_auto() ? "auto" : core::to_string(*selection.fixed);
}

/// The registry sweeps' columns: every mechanism, then auto, filtered by
/// --mechanism=all|<mechanism>|auto (exits 2 listing the choices on any
/// other value).
inline std::vector<core::MechanismSelection> mechanism_selections(
    util::Cli& cli) {
  std::vector<core::MechanismSelection> all;
  for (const core::Mechanism m : core::all_mechanisms()) all.push_back({m});
  all.push_back({});
  std::vector<std::string> choices = {"all"};
  for (const core::MechanismSelection& s : all) choices.push_back(label(s));
  const std::string only = cli.get_choice("mechanism", "all", choices);
  std::erase_if(all, [&](const core::MechanismSelection& s) {
    return only != "all" && only != label(s);
  });
  return all;
}

/// The registry sweeps' auto routing tables, one per input graph: the
/// conflict model conditions on the graph a cell runs.
struct GraphPolicies {
  core::AutoPolicy g;   ///< for Inputs::g
  core::AutoPolicy wg;  ///< for Inputs::wg (weighted algorithms)

  GraphPolicies(const MachineSpec& spec, const algorithms::Inputs& in,
                int batch)
      : g(analysis::make_auto_policy(
            spec.config, spec.kind,
            analysis::workload_from_graph(in.g, spec.threads, batch))),
        wg(analysis::make_auto_policy(
            spec.config, spec.kind,
            analysis::workload_from_graph(in.wg, spec.threads, batch))) {}

  const core::AutoPolicy& of(const algorithms::AlgorithmEntry& algo) const {
    return algo.weighted ? wg : g;
  }
};

/// Reads --algorithm=all|<registry name>|pagerank-dist; exits 2 listing
/// the choices on any other value.
inline std::string get_algorithm_filter(util::Cli& cli) {
  std::vector<std::string> choices = {"all"};
  for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
    choices.push_back(algo.name);
  }
  choices.push_back("pagerank-dist");
  return cli.get_choice("algorithm", "all", choices);
}

/// Syntax-checks a --fault spec up front, so a malformed spec exits 2
/// like every other bad flag value instead of aborting mid-run. Fault
/// semantics still come from each machine's own FaultProfile when a Cell
/// re-parses the spec per run; the errors (unknown scenario or key, bad
/// number, unreadable @file) are profile-independent.
inline const std::string& check_fault_spec(const std::string& spec) {
  fault::FaultPlan plan;
  const auto error = fault::try_parse(spec, model::FaultProfile{}, plan);
  if (error.has_value()) {
    std::cerr << "invalid --fault=" << spec << "; " << *error << "\n";
    std::exit(2);
  }
  return spec;
}

/// Reads --fault=<spec> (default "none") through check_fault_spec.
inline std::string get_fault_spec(util::Cli& cli) {
  return check_fault_spec(cli.get_string("fault", "none"));
}

/// Read --host-threads=N|max and install it as the process-wide worker
/// count for the parallel DES backend (sim::ShardRunner). N=1 (the
/// default) runs shard jobs inline; every simulated result is
/// bit-identical at any N. Exits 2 on a malformed value.
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
