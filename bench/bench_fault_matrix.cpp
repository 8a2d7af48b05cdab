// Fault-oblivious correctness matrix (the headline invariant of the
// aam::fault layer): every algorithm x mechanism x machine cell, run under
// an injected fault scenario, must produce the *same answer* as its
// fault-free run. Faults may only show up in HtmStats/NetStats and in
// simulated time — never in results.
//
// Because fault injection perturbs the schedule (retries, retransmits,
// slowdowns), raw result vectors are not directly comparable; each
// algorithm is reduced to its schedule-invariant semantic projection
// (algorithms::RunReport::projection, built by the registry entry):
//
//   bfs       depth-per-vertex derived from the parent tree (level-
//             synchronous BFS pins every depth) — exact
//   pagerank  rank vector — tolerance (FP summation order moves)
//   sssp      distance vector — tolerance
//   coloring  validity: proper coloring and all vertices colored — exact
//   st-conn   the connectivity verdict — exact
//   boruvka   forest edge count exact + total weight under tolerance
//
// The distributed pagerank cell runs on a 4-node Cluster so network
// scenarios (drop/duplicate/reorder/delay) exercise the reliable-delivery
// protocol end to end, and additionally cross-checks the protocol's exact
// accounting (injected == observed, all sends acked, quiescence reached).
//
// Output is deterministic (no wall-clock, no pointers): running the binary
// twice with the same flags must produce byte-identical stdout, which
// tools/fault_sweep.sh uses as the determinism oracle. Exit code: 0 when
// every cell matches its baseline, 1 otherwise.

#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/pagerank_dist.hpp"
#include "algorithms/registry.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "bench_common.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace {

using namespace aam;

// ---------------------------------------------------------------------------
// Distributed pagerank cell (Cluster-backed; the network scenarios' target).

struct DistCell {
  std::vector<double> rank;
  net::NetStats net;
  htm::HtmStats stats;
  recovery::RecoveryStats rec;  ///< zeroes when the plan has no crashes
  std::string protocol_error;   ///< "" when the exact accounting holds
};

DistCell run_dist_cell(const model::MachineConfig& config,
                       model::HtmKind kind, const graph::Graph& g,
                       const std::string& fault_spec, std::uint64_t seed) {
  const int nodes = 4;
  const int threads = 4;
  const graph::Block1D part(g.num_vertices(), nodes);
  mem::SimHeap heap;
  net::Cluster cluster(config, kind, nodes, threads, heap, seed);
  bench::ScopedFault fault(cluster, fault_spec, seed);
  algorithms::DistPrOptions o;
  o.iterations = 3;
  const auto r = algorithms::run_distributed_pagerank(cluster, g, part, o);
  DistCell cell;
  cell.rank = r.rank;
  cell.net = r.net;
  cell.stats = r.stats;
  if (fault.recovery() != nullptr) cell.rec = fault.recovery()->stats();
  char buf[160];
  if (cluster.in_flight() != 0) {
    std::snprintf(buf, sizeof(buf), "quiescence violated: %llu in flight",
                  static_cast<unsigned long long>(cluster.in_flight()));
    cell.protocol_error = buf;
  } else if (fault.injector() != nullptr && fault.injector()->net_active()) {
    // NetStats counters are rolled back with every restore; the injector's
    // counters never forget. Exact accounting across crash/restore:
    // injected == surviving-timeline NetStats + rolled_back_* deltas.
    const auto& inj = fault.injector()->injected();
    if (cell.net.dropped + cell.rec.rolled_back_dropped != inj.net_dropped ||
        cell.net.duplicated + cell.rec.rolled_back_duplicated !=
            inj.net_duplicated) {
      std::snprintf(buf, sizeof(buf),
                    "inexact accounting: dropped %llu/%llu dup %llu/%llu",
                    static_cast<unsigned long long>(
                        cell.net.dropped + cell.rec.rolled_back_dropped),
                    static_cast<unsigned long long>(inj.net_dropped),
                    static_cast<unsigned long long>(
                        cell.net.duplicated + cell.rec.rolled_back_duplicated),
                    static_cast<unsigned long long>(inj.net_duplicated));
      cell.protocol_error = buf;
    } else if (cell.net.acked != cell.net.messages_sent) {
      std::snprintf(buf, sizeof(buf), "unacked sends: acked=%llu sent=%llu",
                    static_cast<unsigned long long>(cell.net.acked),
                    static_cast<unsigned long long>(cell.net.messages_sent));
      cell.protocol_error = buf;
    } else if (cell.rec.crashes != inj.crashes) {
      std::snprintf(buf, sizeof(buf),
                    "crash accounting: recovered=%llu injected=%llu",
                    static_cast<unsigned long long>(cell.rec.crashes),
                    static_cast<unsigned long long>(inj.crashes));
      cell.protocol_error = buf;
    }
  }
  return cell;
}

/// Deterministic recovery-telemetry suffix for crash cells ("" otherwise).
/// Every field is simulated state, never host time: the binary's stdout is
/// the determinism oracle of tools/fault_sweep.sh.
std::string recovery_suffix(const recovery::RecoveryStats* rec) {
  if (rec == nullptr) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                " [crashes=%llu ckpts=%llu lost=%.0fns replayed=%llu]",
                static_cast<unsigned long long>(rec->crashes),
                static_cast<unsigned long long>(rec->checkpoints),
                rec->lost_work_ns,
                static_cast<unsigned long long>(rec->replayed_sends));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 10));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string fault_filter = cli.get_string("fault", "all");
  const std::string algo_filter = cli.get_string("algorithm", "all");
  std::vector<std::string> mech_choices = {"all"};
  for (const auto m : core::all_mechanisms()) {
    mech_choices.push_back(core::to_string(m));
  }
  mech_choices.push_back("auto");
  const std::string only_mech =
      cli.get_choice("mechanism", "all", mech_choices);
  const std::string machine_filter = cli.get_string("machine", "all");
  cli.check_unknown();

  // Scenario list: every canned scenario except "none" (each is compared
  // against the fault-free baseline), or one user-provided spec.
  std::vector<std::string> scenarios;
  if (fault_filter == "all") {
    for (const std::string& s : fault::canned_scenarios()) {
      if (s != "none") scenarios.push_back(s);
    }
    scenarios.push_back("brownout");
  } else {
    fault::FaultPlan probe;
    const auto error =
        fault::try_parse(fault_filter, model::FaultProfile{}, probe);
    if (error.has_value()) {
      std::cerr << "invalid --fault=" << fault_filter << "; " << *error
                << "\n";
      return 2;
    }
    scenarios.push_back(fault_filter);
  }

  struct Setup {
    const model::MachineConfig* config;
    model::HtmKind kind;
    int threads;
  };
  std::vector<Setup> setups;
  if (machine_filter == "all" || machine_filter == "BGQ") {
    setups.push_back({&model::bgq(), model::HtmKind::kBgqShort, 16});
  }
  if (machine_filter == "all" || machine_filter == "Has-C") {
    setups.push_back({&model::has_c(), model::HtmKind::kRtm, 8});
  }
  AAM_CHECK_MSG(!setups.empty(), "unknown --machine (BGQ, Has-C, all)");

  algorithms::Inputs in =
      algorithms::make_inputs({.scale = scale, .seed = seed});
  in.coloring_seed = seed + 6;
  util::Rng drng(seed + 17);
  const graph::Graph dg = graph::erdos_renyi(1 << 10, 0.01, drng);

  int cells = 0;
  int failures = 0;
  for (const Setup& setup : setups) {
    // Static routing tables for the auto cells, one per input graph.
    const core::AutoPolicy policy_g = analysis::make_auto_policy(
        *setup.config, setup.kind,
        analysis::workload_from_graph(in.g, setup.threads, 16));
    const core::AutoPolicy policy_wg = analysis::make_auto_policy(
        *setup.config, setup.kind,
        analysis::workload_from_graph(in.wg, setup.threads, 16));
    struct Cell {
      const char* label;
      core::Mechanism mech;
      bool is_auto;
    };
    std::vector<Cell> mech_cells;
    for (const core::Mechanism mech : core::all_mechanisms()) {
      if (only_mech == "all" || only_mech == core::to_string(mech)) {
        mech_cells.push_back({core::to_string(mech), mech, false});
      }
    }
    if (only_mech == "all" || only_mech == "auto") {
      mech_cells.push_back({"auto", core::Mechanism::kHtmCoarsened, true});
    }

    // Shared-memory cells.
    for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
      if (algo_filter != "all" && algo_filter != algo.name) continue;
      for (const Cell& cell : mech_cells) {
        core::ExecConfig exec = algo.exec;
        exec.mechanism = cell.mech;
        exec.auto_policy =
            cell.is_auto ? (algo.weighted ? &policy_wg : &policy_g) : nullptr;
        algorithms::Projection base;
        {
          mem::SimHeap heap;
          htm::DesMachine machine(*setup.config, setup.kind, setup.threads,
                                  heap, seed);
          base = algo.run(machine, in, exec).projection;
        }
        for (const std::string& scenario : scenarios) {
          ++cells;
          mem::SimHeap heap;
          htm::DesMachine machine(*setup.config, setup.kind, setup.threads,
                                  heap, seed);
          bench::ScopedFault fault(machine, scenario, seed);
          const algorithms::Projection got =
              algo.run(machine, in, exec).projection;
          std::string diff = algorithms::compare(base, got);
          if (diff.empty() && fault.recovery() != nullptr) {
            // Every injected crash-stop must have been recovered from.
            const auto& rec = fault.recovery()->stats();
            const auto fired = fault.injector()->injected().crashes;
            if (rec.crashes != fired) {
              char buf[96];
              std::snprintf(buf, sizeof(buf),
                            "crash accounting: recovered=%llu injected=%llu",
                            static_cast<unsigned long long>(rec.crashes),
                            static_cast<unsigned long long>(fired));
              diff = buf;
            }
          }
          const bool ok = diff.empty();
          if (!ok) ++failures;
          const std::string rec_suffix = recovery_suffix(
              fault.recovery() != nullptr ? &fault.recovery()->stats()
                                          : nullptr);
          std::printf("%-5s %-8s %-13s %-12s %s%s%s%s\n",
                      setup.config->name.c_str(), algo.name, cell.label,
                      scenario.c_str(), ok ? "OK" : "MISMATCH",
                      ok ? "" : ": ", diff.c_str(), rec_suffix.c_str());
        }
      }
    }
    // Distributed pagerank cell: compare against the fault-free cluster
    // run and enforce the delivery protocol's exact accounting.
    if (algo_filter == "all" || algo_filter == "pagerank-dist") {
      const DistCell base =
          run_dist_cell(*setup.config, setup.kind, dg, "none", seed);
      for (const std::string& scenario : scenarios) {
        ++cells;
        const DistCell got =
            run_dist_cell(*setup.config, setup.kind, dg, scenario, seed);
        std::string diff = got.protocol_error;
        if (diff.empty()) {
          algorithms::Projection pb, pg;
          pb.approx = base.rank;
          pg.approx = got.rank;
          // float32 message payloads + reordered accumulation.
          pb.tolerance = 1e-5;
          diff = algorithms::compare(pb, pg);
        }
        const bool ok = diff.empty();
        if (!ok) ++failures;
        const std::string rec_suffix =
            recovery_suffix(got.rec.crashes + got.rec.checkpoints > 0
                                ? &got.rec
                                : nullptr);
        std::printf(
            "%-5s %-8s %-13s %-12s %s%s%s (dropped=%llu dup=%llu "
            "retx=%llu deduped=%llu)%s\n",
            setup.config->name.c_str(), "pr-dist", "am", scenario.c_str(),
            ok ? "OK" : "MISMATCH", ok ? "" : ": ", diff.c_str(),
            static_cast<unsigned long long>(got.net.dropped),
            static_cast<unsigned long long>(got.net.duplicated),
            static_cast<unsigned long long>(got.net.retransmitted),
            static_cast<unsigned long long>(got.net.dedup_discarded),
            rec_suffix.c_str());
      }
    }
  }

  std::printf("fault matrix: %d cells, %d mismatches\n", cells, failures);
  return failures == 0 ? 0 : 1;
}
