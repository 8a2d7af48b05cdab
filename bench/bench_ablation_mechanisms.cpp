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

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "bench_common.hpp"
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
  const std::vector<core::MechanismSelection> selections =
      bench::mechanism_selections(cli);
  const bench::RunFlags flags{.check = check::check_flag(cli)};
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
    bench::MachineSpec machine;
    int opt_m;
  };
  const std::vector<Setup> setups = {
      {{model::bgq(), model::HtmKind::kBgqShort, 64, seed}, bgq_m},
      {{model::has_c(), model::HtmKind::kRtm, 8, seed}, has_m},
  };

  struct Variant {
    std::string label;
    core::MechanismSelection selection;
    int batch;
  };

  for (const Setup& setup : setups) {
    // HTM runs at M=1 and at the optimum M, after the other fixed
    // mechanisms (atomics first, so every later row has its "vs atomics"
    // figure) and before auto.
    std::vector<Variant> variants;
    for (const core::MechanismSelection& s : selections) {
      if (s.fixed == core::Mechanism::kHtmCoarsened) {
        variants.push_back({"htm M=1", s, 1});
        variants.push_back(
            {"htm M=" + std::to_string(setup.opt_m), s, setup.opt_m});
      } else {
        variants.push_back({bench::label(s), s, setup.opt_m});
      }
    }
    const auto rank = [](const Variant& v) {
      if (v.selection.is_auto()) return 2;
      return v.selection.fixed == core::Mechanism::kHtmCoarsened ? 1 : 0;
    };
    std::stable_sort(variants.begin(), variants.end(),
                     [&](const Variant& a, const Variant& b) {
                       return rank(a) < rank(b);
                     });
    const bench::GraphPolicies policies(setup.machine, in, setup.opt_m);

    // Each (algorithm, variant) pair is an independent cell (own heap and
    // machine), so the sweep runs on the parallel DES backend. The "vs
    // atomics" column is derived from the gathered slots afterwards, in
    // deterministic cell order, so the table is identical at any
    // --host-threads value. --check runs stay sequential: a checked cell
    // exits the process on a violation, which is not a per-shard effect.
    const std::size_t n_cells = algos.size() * variants.size();
    std::vector<algorithms::RunReport> slots(n_cells);
    sim::ShardRunner runner(flags.check.enabled() ? 1 : host_threads);
    runner.run(n_cells, [&](sim::ShardId cell_id) {
      const algorithms::AlgorithmEntry& algo =
          algos[cell_id / variants.size()];
      const Variant& v = variants[cell_id % variants.size()];
      bench::Cell cell(setup.machine, flags, cell_id);
      core::ExecConfig exec = algo.exec;
      exec.batch = v.batch;
      exec = cell.configure(exec, v.selection, &policies.of(algo));
      slots[cell_id] = algo.run(cell.machine(), in, exec);
      AAM_CHECK(slots[cell_id].valid);
    });

    util::Table table({"algorithm", "mechanism", "runtime", "vs atomics",
                       "commits", "aborts", "cas", "acc"});
    for (std::size_t a = 0; a < algos.size(); ++a) {
      double atomics_time = 0;
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant& v = variants[vi];
        const algorithms::RunReport& r = slots[a * variants.size() + vi];
        if (v.selection.fixed == core::Mechanism::kAtomicOps) {
          atomics_time = r.sim_ns;
        }
        const std::string speedup =
            atomics_time > 0 ? bench::speedup_str(atomics_time / r.sim_ns) + "x"
                             : "-";
        table.row().cell(algos[a].name).cell(v.label)
            .cell(util::format_time_ns(r.sim_ns)).cell(speedup)
            .cell(r.stats.committed).cell(r.stats.total_aborts())
            .cell(r.stats.atomic_cas).cell(r.stats.atomic_acc);
      }
    }
    const bench::MachineSpec& m = setup.machine;
    table.print(m.config.name + ", T=" + std::to_string(m.threads));
    io.maybe_write_csv(table, m.config.name);
  }
  std::printf(
      "\npaper claims (§4.1, Fig 3/6): atomics beat single-vertex HTM; "
      "coarse HTM at the optimum M overtakes atomics as |V| grows "
      "(BGQ: ~1x at 2^16, >1.3x at 2^17 — try --scale=17); locks trail "
      "both.\n");
  return 0;
}
