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
#include "bench_common.hpp"
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

DistCell run_dist_cell(const bench::MachineSpec& setup, const graph::Graph& g,
                       const std::string& fault_spec) {
  const int nodes = 4;
  const graph::Block1D part(g.num_vertices(), nodes);
  bench::Cell run({setup.config, setup.kind, 4, setup.seed, nodes},
                  {.fault = fault_spec});
  algorithms::DistPrOptions o;
  o.iterations = 3;
  const auto r =
      algorithms::run_distributed_pagerank(run.cluster(), g, part, o);
  DistCell cell;
  cell.rank = r.rank;
  cell.net = r.net;
  cell.stats = r.stats;
  if (run.recovery() != nullptr) cell.rec = run.recovery()->stats();
  char buf[160];
  if (run.cluster().in_flight() != 0) {
    std::snprintf(buf, sizeof(buf), "quiescence violated: %llu in flight",
                  static_cast<unsigned long long>(run.cluster().in_flight()));
    cell.protocol_error = buf;
  } else if (run.injector() != nullptr && run.injector()->net_active()) {
    // NetStats counters are rolled back with every restore; the injector's
    // counters never forget. Exact accounting across crash/restore:
    // injected == surviving-timeline NetStats + rolled_back_* deltas.
    const auto& inj = run.injector()->injected();
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
  if (fault_filter != "all") bench::check_fault_spec(fault_filter);
  const std::string algo_filter = bench::get_algorithm_filter(cli);
  const std::vector<core::MechanismSelection> selections =
      bench::mechanism_selections(cli);
  const std::string machine_filter = cli.get_choice(
      "machine", "all", {"all", model::bgq().name, model::has_c().name});
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
    scenarios.push_back(fault_filter);
  }

  std::vector<bench::MachineSpec> setups;
  if (machine_filter == "all" || machine_filter == "BGQ") {
    setups.push_back({model::bgq(), model::HtmKind::kBgqShort, 16, seed});
  }
  if (machine_filter == "all" || machine_filter == "Has-C") {
    setups.push_back({model::has_c(), model::HtmKind::kRtm, 8, seed});
  }

  algorithms::Inputs in =
      algorithms::make_inputs({.scale = scale, .seed = seed});
  in.coloring_seed = seed + 6;
  util::Rng drng(seed + 17);
  const graph::Graph dg = graph::erdos_renyi(1 << 10, 0.01, drng);

  int cells = 0;
  int failures = 0;
  for (const bench::MachineSpec& setup : setups) {
    const bench::GraphPolicies policies(setup, in, 16);

    // Shared-memory cells.
    for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
      if (algo_filter != "all" && algo_filter != algo.name) continue;
      for (const core::MechanismSelection& selection : selections) {
        const auto run = [&](bench::Cell& cell) {
          const core::ExecConfig exec =
              cell.configure(algo.exec, selection, &policies.of(algo));
          return algo.run(cell.machine(), in, exec).projection;
        };
        algorithms::Projection base;
        {
          bench::Cell cell(setup);
          base = run(cell);
        }
        for (const std::string& scenario : scenarios) {
          ++cells;
          bench::Cell cell(setup, {.fault = scenario});
          const algorithms::Projection got = run(cell);
          std::string diff = algorithms::compare(base, got);
          if (diff.empty() && cell.recovery() != nullptr) {
            // Every injected crash-stop must have been recovered from.
            const auto& rec = cell.recovery()->stats();
            const auto fired = cell.injector()->injected().crashes;
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
              cell.recovery() != nullptr ? &cell.recovery()->stats()
                                         : nullptr);
          std::printf("%-5s %-8s %-13s %-12s %s%s%s%s\n",
                      setup.config.name.c_str(), algo.name,
                      bench::label(selection).c_str(), scenario.c_str(),
                      ok ? "OK" : "MISMATCH", ok ? "" : ": ", diff.c_str(),
                      rec_suffix.c_str());
        }
      }
    }
    // Distributed pagerank cell: compare against the fault-free cluster
    // run and enforce the delivery protocol's exact accounting.
    if (algo_filter == "all" || algo_filter == "pagerank-dist") {
      const DistCell base = run_dist_cell(setup, dg, "none");
      for (const std::string& scenario : scenarios) {
        ++cells;
        const DistCell got = run_dist_cell(setup, dg, scenario);
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
            setup.config.name.c_str(), "pr-dist", "am", scenario.c_str(),
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
