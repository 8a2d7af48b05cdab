// Ablation (§4.1, Fig 3/6): one operator formulation, every mechanism.
//
// "Locks consistently entailed generally lower performance and we thus
// skip them due to space constraints" — this harness reproduces exactly
// that omitted comparison, and widens it: every algorithm of §3.3 runs
// under every synchronization mechanism of the executor layer
// (core/executor.hpp) — atomics, fine-grained locks, a global serial
// lock, STM, and HTM at M=1 and at the per-machine optimum M — from the
// *same* single-element operator bodies. Expected qualitative ordering
// (checkable against Fig 3 and Fig 6): plain atomics beat single-vertex
// HTM (per-transaction begin/commit overhead dominates), and coarsened
// HTM at the M sweet spot beats atomics by amortizing that overhead.

#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "bench_common.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "sim/host_pool.hpp"

using namespace aam;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchIo io;
  io.csv_path = cli.get_string("csv", "");
  const int scale = static_cast<int>(cli.get_int("scale", 14));
  // Fig 6's BGQ gains live in the sparse regime (d ~ 4) and grow with
  // |V|; --scale=17 shows coarse HTM overtaking atomics on BGQ.
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 2));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int pr_iters = static_cast<int>(cli.get_int("pr-iters", 3));
  // The paper's optima (M=144 BGQ / M=2 Haswell) hold at |V| >= 2^20; the
  // conflict-bound optimum shrinks with |V| (see EXPERIMENTS.md), so the
  // scaled-down default sweep uses a mid-range M, like bench_fig6.
  const int bgq_m = static_cast<int>(cli.get_int("bgq-m", 32));
  const int has_m = static_cast<int>(cli.get_int("has-m", 2));
  // Restrict the sweep to one mechanism column ("htm" keeps both M=1 and
  // M=opt); default sweeps everything.
  std::vector<std::string> choices = {"all"};
  for (const auto m : core::all_mechanisms()) choices.push_back(core::to_string(m));
  choices.push_back("auto");
  const std::string only = cli.get_choice("mechanism", "all", choices);
  const check::CheckConfig check_cfg = check::check_flag(cli);
  const int host_threads = bench::get_host_threads(cli);
  cli.check_unknown();

  bench::print_header(
      "Ablation — mechanisms x algorithms: HTM vs atomics vs locks vs STM "
      "(§4.1)",
      "Every §3.3 algorithm under every executor mechanism, same operator "
      "bodies; Kronecker 2^" + std::to_string(scale) +
          " (weighted Erdos-Renyi for SSSP/Boruvka); HTM also at the "
          "per-machine optimum M.");

  // Shared inputs: one unweighted power-law graph, one weighted graph.
  // Every run's answer is validated (BFS tree, coloring, MST weight, ...).
  algorithms::Inputs in = algorithms::make_inputs(
      {.scale = scale, .edge_factor = edge_factor, .seed = seed,
       .weighted_vertices = 1500, .weighted_p = 0.01});
  in.pr_iterations = pr_iters;
  const auto algos = algorithms::registry();

  struct Setup {
    const model::MachineConfig* config;
    model::HtmKind kind;
    int threads;
    int opt_m;
  };
  const std::vector<Setup> setups = {
      {&model::bgq(), model::HtmKind::kBgqShort, 64, bgq_m},
      {&model::has_c(), model::HtmKind::kRtm, 8, has_m},
  };

  struct Variant {
    std::string label;
    core::Mechanism mech;
    int batch;  ///< 0 = use the machine's optimum M
    bool is_auto = false;
  };

  for (const Setup& setup : setups) {
    std::vector<Variant> variants = {
        {"atomics", core::Mechanism::kAtomicOps, 0},
        {"fine-locks", core::Mechanism::kFineLocks, 0},
        {"serial-lock", core::Mechanism::kSerialLock, 0},
        {"stm", core::Mechanism::kStm, 0},
        {"htm M=1", core::Mechanism::kHtmCoarsened, 1},
        {"htm M=" + std::to_string(setup.opt_m),
         core::Mechanism::kHtmCoarsened, 0},
        {"auto", core::Mechanism::kHtmCoarsened, 0, true},
    };
    if (only != "all") {
      std::erase_if(variants, [&](const Variant& v) {
        return only != (v.is_auto ? "auto" : core::to_string(v.mech));
      });
    }

    // Static routing tables for the auto variant, one per input graph.
    const core::AutoPolicy policy_g = analysis::make_auto_policy(
        *setup.config, setup.kind,
        analysis::workload_from_graph(in.g, setup.threads, setup.opt_m));
    const core::AutoPolicy policy_wg = analysis::make_auto_policy(
        *setup.config, setup.kind,
        analysis::workload_from_graph(in.wg, setup.threads, setup.opt_m));

    // Each (algorithm, variant) pair is an independent cell (own heap and
    // machine), so the sweep runs on the parallel DES backend. The "vs
    // atomics" column is derived from the gathered slots afterwards, in
    // deterministic cell order, so the table is identical at any
    // --host-threads value. --check runs stay sequential: the checker's
    // verdict handling (ScopedChecker exits the process on a violation)
    // is not a per-shard effect.
    const std::size_t n_cells = algos.size() * variants.size();
    std::vector<algorithms::RunReport> slots(n_cells);
    sim::ShardRunner runner(check_cfg.enabled() ? 1 : host_threads);
    runner.run(n_cells, [&](sim::ShardId cell_id) {
      const algorithms::AlgorithmEntry& algo =
          algos[cell_id / variants.size()];
      const Variant& v = variants[cell_id % variants.size()];
      mem::SimHeap heap;
      htm::DesMachine machine(*setup.config, setup.kind, setup.threads,
                              heap, seed);
      machine.bind_shard(cell_id);
      bench::ScopedChecker scoped(machine, check_cfg);
      // Private policy copy: AutoTelemetry is mutable inside the shared
      // per-graph policies, so parallel auto cells must not share one.
      const core::AutoPolicy policy_copy =
          algo.weighted ? policy_wg : policy_g;
      const core::AutoPolicy* policy = v.is_auto ? &policy_copy : nullptr;
      // Audit the auto dispatcher against its own capacity analysis.
      if (scoped.checker() != nullptr) {
        scoped.checker()->set_capacity_policy(policy);
      }
      core::ExecConfig exec = algo.exec;
      exec.batch = v.batch == 0 ? setup.opt_m : v.batch;
      exec.mechanism = v.mech;
      exec.recorder = scoped.recorder();
      exec.auto_policy = policy;
      slots[cell_id] = algo.run(machine, in, exec);
      AAM_CHECK(slots[cell_id].valid);
    });

    util::Table table({"algorithm", "mechanism", "runtime", "vs atomics",
                       "commits", "aborts", "cas", "acc"});
    for (std::size_t a = 0; a < algos.size(); ++a) {
      double atomics_time = 0;
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant& v = variants[vi];
        const algorithms::RunReport& r = slots[a * variants.size() + vi];
        if (v.mech == core::Mechanism::kAtomicOps) atomics_time = r.sim_ns;
        const std::string speedup =
            atomics_time > 0 ? bench::speedup_str(atomics_time / r.sim_ns) + "x"
                             : "-";
        table.row().cell(algos[a].name).cell(v.label)
            .cell(util::format_time_ns(r.sim_ns)).cell(speedup)
            .cell(r.stats.committed).cell(r.stats.total_aborts())
            .cell(r.stats.atomic_cas).cell(r.stats.atomic_acc);
      }
    }
    table.print(setup.config->name + ", T=" + std::to_string(setup.threads));
    io.maybe_write_csv(table, setup.config->name);
  }
  std::printf(
      "\npaper claims (§4.1, Fig 3/6): atomics beat single-vertex HTM; "
      "coarse HTM at the optimum M overtakes atomics as |V| grows "
      "(BGQ: ~1x at 2^16, >1.3x at 2^17 — try --scale=17); locks trail "
      "both.\n");
  return 0;
}
